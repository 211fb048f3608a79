(* Small random scheduling instances shared by the verdict properties: a
   random DAG on [m] processors, scheduled by CAFT, FTSA or FTBAR under
   one communication model for a given [epsilon].  A thinned instance
   keeps only the first supply of each replica per predecessor, so it
   mostly no longer resists its own [epsilon]: the verdicts then have a
   refutation to agree on. *)

type algo = Caft | Ftsa | Ftbar

type t = {
  seed : int;
  m : int;
  tasks : int;
  epsilon : int;  (** the schedule's replication degree, below [m] *)
  algo : algo;
  model : Netstate.model;
  thin : bool;
}

let algo_name = function Caft -> "CAFT" | Ftsa -> "FTSA" | Ftbar -> "FTBAR"

let model_name = function
  | Netstate.One_port -> "one-port"
  | Netstate.Multiport k -> Printf.sprintf "multiport-%d" k
  | Netstate.Macro_dataflow -> "macro-dataflow"

let print i =
  Printf.sprintf "seed=%d m=%d tasks=%d eps=%d %s %s%s" i.seed i.m i.tasks
    i.epsilon (algo_name i.algo) (model_name i.model)
    (if i.thin then " thinned" else "")

let models =
  [ Netstate.One_port; Netstate.Multiport 2; Netstate.Macro_dataflow ]

(* [gen ~m ~tasks ~epsilon] draws [m], [tasks] and [epsilon] from the
   given generators; [epsilon] is cut to [m - 1]. *)
let gen ~m ~tasks ~epsilon =
  QCheck.Gen.(
    map
      (fun ((seed, m, tasks), (epsilon, algo, model), thin) ->
        { seed; m; tasks; epsilon = min epsilon (m - 1); algo; model; thin })
      (triple
         (triple (int_range 0 1_000_000) m tasks)
         (triple epsilon
            (oneofl [ Caft; Ftsa; Ftbar ])
            (oneofl models))
         (frequencyl [ (2, false); (1, true) ])))

let supply_pred = function
  | Schedule.Local l -> l.l_pred
  | Schedule.Message msg -> msg.Netstate.m_source.Netstate.s_task

(* the first supply of each predecessor, in the replica's order *)
let thin_inputs (r : Schedule.replica) =
  let seen = Hashtbl.create 8 in
  let keep s =
    let p = supply_pred s in
    if Hashtbl.mem seen p then false
    else begin
      Hashtbl.add seen p ();
      true
    end
  in
  { r with Schedule.r_inputs = List.filter keep r.Schedule.r_inputs }

let schedule i =
  let _, costs =
    Helpers.random_instance ~seed:i.seed ~m:i.m ~tasks:i.tasks ()
  in
  let model = i.model and seed = i.seed and epsilon = i.epsilon in
  let sched =
    match i.algo with
    | Caft -> Caft.run ~model ~seed ~epsilon costs
    | Ftsa -> Ftsa.run ~model ~seed ~epsilon costs
    | Ftbar -> Ftbar.run ~model ~seed ~epsilon costs
  in
  if not i.thin then sched
  else
    Schedule.create ~algorithm:(Schedule.algorithm sched) ~epsilon ~model
      ~costs
      (List.map thin_inputs (Schedule.all_replicas sched))
