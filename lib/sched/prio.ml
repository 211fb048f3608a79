type entry = { task : Dag.task; prio : float; tiebreak : float }

type t = {
  dag : Dag.t;
  tl : float array;  (* dynamic top levels *)
  bl : float array;
  tiebreaks : float array;
  free : entry Heap.t;
  unscheduled_preds : int array;
  scheduled : bool array;
  mutable remaining : int;
  mean_delay : float;
}

let cmp_entry a b =
  (* max-heap on priority: invert the comparison; ties by tiebreak then id *)
  let c = compare b.prio a.prio in
  if c <> 0 then c
  else
    let c = compare a.tiebreak b.tiebreak in
    if c <> 0 then c else compare a.task b.task

let create ~rng costs =
  let dag = Costs.dag costs in
  let levels = Levels.compute costs in
  let n = Dag.task_count dag in
  let tl = Levels.dynamic_top_levels levels in
  let bl = Array.init n (fun i -> Levels.bottom_level levels i) in
  let tiebreaks = Array.init n (fun _ -> Rng.float rng 1.0) in
  (* Pre-size to the task count: the free list can hold a whole frontier
     (n - 1 tasks on a fork), and doubling-growth churn matters at 1e5+. *)
  let free =
    Heap.with_capacity ~cmp:cmp_entry
      ~dummy:{ task = -1; prio = 0.; tiebreak = 0. }
      n
  in
  let unscheduled_preds = Array.init n (fun i -> Dag.in_degree dag i) in
  List.iter
    (fun task ->
      Heap.add free { task; prio = tl.(task) +. bl.(task); tiebreak = tiebreaks.(task) })
    (Dag.entries dag);
  {
    dag;
    tl;
    bl;
    tiebreaks;
    free;
    unscheduled_preds;
    scheduled = Array.make n false;
    remaining = n;
    mean_delay = Platform.mean_delay (Costs.platform costs);
  }

let pop t = Option.map (fun e -> e.task) (Heap.pop t.free)
let free_count t = Heap.length t.free
let remaining t = t.remaining
let is_done t = t.remaining = 0
let priority t task = t.tl.(task) +. t.bl.(task)

let mark_scheduled t task ~completion =
  if t.scheduled.(task) then invalid_arg "Prio.mark_scheduled: already scheduled";
  t.scheduled.(task) <- true;
  t.remaining <- t.remaining - 1;
  Array.iter
    (fun (succ, vol) ->
      let cand = completion +. (vol *. t.mean_delay) in
      if cand > t.tl.(succ) then t.tl.(succ) <- cand;
      t.unscheduled_preds.(succ) <- t.unscheduled_preds.(succ) - 1;
      if t.unscheduled_preds.(succ) = 0 then
        Heap.add t.free
          {
            task = succ;
            prio = t.tl.(succ) +. t.bl.(succ);
            tiebreak = t.tiebreaks.(succ);
          })
    (Dag.succs t.dag task)
