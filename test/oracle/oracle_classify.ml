(* Shape predicates for the workload families.  The library keeps only
   [Classify.is_out_forest], which [Mapping] uses; these check that a
   generator builds the shape it names. *)

let for_all_tasks p g =
  let n = Dag.task_count g in
  let rec go i = i >= n || (p i && go (i + 1)) in
  go 0

(* every task has out-degree at most one *)
let is_in_forest g = for_all_tasks (fun t -> Dag.out_degree g t <= 1) g

let has_single_entry g = match Dag.entries g with [ _ ] -> true | _ -> false
let has_single_exit g = match Dag.exits g with [ _ ] -> true | _ -> false

(* a single entry task, every other task an immediate successor of it
   and an exit (a one-level out-star) *)
let is_fork g =
  match Dag.entries g with
  | [ root ] ->
      Dag.out_degree g root = Dag.task_count g - 1
      && for_all_tasks
           (fun t -> t = root || (Dag.in_degree g t = 1 && Dag.out_degree g t = 0))
           g
  | _ -> Dag.task_count g <= 1

(* the mirror image: a single exit task fed directly by all others *)
let is_join g =
  match Dag.exits g with
  | [ sink ] ->
      Dag.in_degree g sink = Dag.task_count g - 1
      && for_all_tasks
           (fun t -> t = sink || (Dag.out_degree g t = 1 && Dag.in_degree g t = 0))
           g
  | _ -> Dag.task_count g <= 1

(* the tasks form a single path *)
let is_chain g =
  let n = Dag.task_count g in
  Dag.edge_count g = max 0 (n - 1)
  && for_all_tasks (fun t -> Dag.in_degree g t <= 1 && Dag.out_degree g t <= 1) g
  && Dag.longest_path_length g = n

(* weakly connected, ignoring edge direction; the empty DAG counts as
   connected *)
let is_connected g =
  let n = Dag.task_count g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let rec visit u =
      if not seen.(u) then begin
        seen.(u) <- true;
        List.iter visit (Dag.succ_tasks g u);
        List.iter visit (Dag.pred_tasks g u)
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  end
