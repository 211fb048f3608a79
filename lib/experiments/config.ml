(* Experiment configurations: one per figure of Section 6. *)

type t = {
  id : string;  (** "fig1" .. "fig6" *)
  description : string;
  granularities : float list;
  m : int;  (** processors *)
  epsilon : int;  (** failures supported by the schedules *)
  crashes : int;  (** processors actually crashed in the (b)/(c) panels *)
  graphs_per_point : int;  (** 60 in the paper *)
}

(* granularity range A: 0.2 .. 2.0 step 0.2; range B: 1 .. 10 step 1 *)
let range_a = List.init 10 (fun i -> 0.2 *. float_of_int (i + 1))
let range_b = List.init 10 (fun i -> float_of_int (i + 1))

let make id description granularities m epsilon crashes =
  { id; description; granularities; m; epsilon; crashes; graphs_per_point = 60 }

let figure = function
  | 1 ->
      make "fig1" "granularity 0.2-2.0, m=10, eps=1, 1 crash" range_a 10 1 1
  | 2 ->
      make "fig2" "granularity 0.2-2.0, m=10, eps=3, 2 crashes" range_a 10 3 2
  | 3 ->
      make "fig3" "granularity 0.2-2.0, m=20, eps=5, 3 crashes" range_a 20 5 3
  | 4 -> make "fig4" "granularity 1-10, m=10, eps=1, 1 crash" range_b 10 1 1
  | 5 -> make "fig5" "granularity 1-10, m=10, eps=3, 2 crashes" range_b 10 3 2
  | 6 -> make "fig6" "granularity 1-10, m=20, eps=5, 3 crashes" range_b 20 5 3
  | n -> invalid_arg (Printf.sprintf "Config.figure: no figure %d" n)

let with_graphs_per_point t n =
  if n < 1 then invalid_arg "Config.with_graphs_per_point";
  { t with graphs_per_point = n }
