(* Property-based tests (qcheck): invariants over randomly generated
   instances, schedules and crash scenarios. *)

(* -- generators -------------------------------------------------------- *)

let instance_gen = Helpers.instance_gen ~max_tasks:30
let arbitrary_instance = Helpers.arbitrary_instance ~max_tasks:30
let build_instance = Helpers.instance_of

(* a random out-forest: each task j > 0 gets a parent uniform in [0, j-1]
   or stays a root *)
let out_forest_of_seed seed tasks =
  let rng = Rng.create seed in
  let b = Dag.Builder.create () in
  for _ = 1 to tasks do
    ignore (Dag.Builder.add_task b)
  done;
  for j = 1 to tasks - 1 do
    if Rng.int rng 5 > 0 then begin
      let parent = Rng.int rng j in
      Dag.Builder.add_edge b ~src:parent ~dst:j
        ~volume:(Rng.float_in rng 50. 150.)
    end
  done;
  Dag.Builder.build b

(* -- properties --------------------------------------------------------- *)

let prop_random_dag_well_formed =
  QCheck.Test.make ~count:100 ~name:"random DAGs are well-formed"
    arbitrary_instance (fun inst ->
      let dag, _ = build_instance inst in
      let v = Dag.task_count dag in
      let ok = ref true in
      for t = 0 to v - 1 do
        if Dag.in_degree dag t > 3 || Dag.out_degree dag t > 3 then ok := false
      done;
      (* topological order is consistent *)
      let pos = Array.make v 0 in
      Array.iteri (fun i t -> pos.(t) <- i) (Dag.topological_order dag);
      Dag.iter_edges (fun u w _ -> if pos.(u) >= pos.(w) then ok := false) dag;
      !ok)

let prop_schedules_valid =
  QCheck.Test.make ~count:30 ~name:"schedulers produce valid schedules"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      List.for_all
        (fun sched -> Validate.run sched = [])
        [
          Caft.run ~epsilon:1 costs;
          Ftsa.run ~epsilon:1 costs;
          Ftbar.run ~epsilon:1 costs;
        ])

let prop_caft_resists_exhaustively =
  QCheck.Test.make ~count:30 ~name:"CAFT resists epsilon crashes (exhaustive)"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      let epsilon = 2 in
      let sched = Caft.run ~epsilon costs in
      (Fault_check.check ~epsilon sched).Fault_check.resists)

let prop_ftsa_resists_exhaustively =
  QCheck.Test.make ~count:20 ~name:"FTSA resists epsilon crashes (exhaustive)"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      let epsilon = 2 in
      let sched = Ftsa.run ~epsilon costs in
      (Fault_check.check ~epsilon sched).Fault_check.resists)

let prop_replay_matches_static =
  QCheck.Test.make ~count:30 ~name:"fault-free replay equals static latency"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      List.for_all
        (fun sched ->
          let out = Replay.fault_free sched in
          out.Replay.completed
          && Flt.approx_eq ~tol:1e-6 out.Replay.latency
               (Schedule.latency_zero_crash sched))
        [ Caft.run ~epsilon:1 costs; Ftsa.run ~epsilon:2 costs ])

let prop_completion_monotone =
  QCheck.Test.make ~count:30
    ~name:"completion is monotone in the crash set"
    arbitrary_instance (fun ((_, m, _) as inst) ->
      let _, costs = build_instance inst in
      let sched = Caft.run ~epsilon:1 costs in
      (* take a random failing-or-not crash pair and check subsets *)
      let rng = Rng.create 1 in
      let all = List.init m Fun.id in
      let c2 = Rng.sample_without_replacement rng 2 (List.length all) in
      let full = Replay.crash_from_start sched ~crashed:c2 in
      List.for_all
        (fun c ->
          let sub = Replay.crash_from_start sched ~crashed:[ c ] in
          (* if the superset completes, every subset must complete *)
          (not full.Replay.completed) || sub.Replay.completed)
        c2)

let prop_message_bounds =
  QCheck.Test.make ~count:30 ~name:"message-count bounds"
    arbitrary_instance (fun inst ->
      let dag, costs = build_instance inst in
      let epsilon = 1 in
      let e = Dag.edge_count dag in
      let caft = Schedule.message_count (Caft.run ~epsilon costs) in
      let ftsa = Schedule.message_count (Ftsa.run ~epsilon costs) in
      caft <= e * (epsilon + 1) * (epsilon + 1)
      && ftsa <= e * (epsilon + 1) * (epsilon + 1))

let prop_caft_outforest_bound =
  QCheck.Test.make ~count:50
    ~name:"Proposition 5.1: CAFT <= e(eps+1) on out-forests"
    (QCheck.make
       QCheck.Gen.(pair Helpers.seed_gen (int_range 5 30))
       ~print:(fun (s, t) -> Printf.sprintf "seed=%d tasks=%d" s t))
    (fun (seed, tasks) ->
      let dag = out_forest_of_seed seed tasks in
      QCheck.assume (Classify.is_out_forest dag);
      let rng = Rng.create (seed + 1) in
      let params = Platform_gen.default ~m:8 () in
      let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
      let epsilon = 2 in
      let sched = Caft.run ~epsilon costs in
      Schedule.message_count sched <= Dag.edge_count dag * (epsilon + 1))

let prop_granularity_rescale =
  QCheck.Test.make ~count:50 ~name:"granularity rescaling is exact"
    (QCheck.make
       QCheck.Gen.(pair instance_gen (float_range 0.1 10.))
       ~print:(fun ((s, m, t), g) ->
         Printf.sprintf "seed=%d m=%d tasks=%d g=%f" s m t g))
    (fun (inst, g) ->
      let _, costs = build_instance inst in
      let rescaled = Granularity.rescale_to costs g in
      Flt.approx_eq ~tol:1e-6 g (Granularity.compute rescaled))

let prop_width_bounds =
  QCheck.Test.make ~count:50 ~name:"width within structural bounds"
    arbitrary_instance (fun inst ->
      let dag, _ = build_instance inst in
      let w = Dag.width dag in
      let v = Dag.task_count dag in
      let entries = List.length (Dag.entries dag) in
      let depth = Dag.longest_path_length dag in
      (* a chain cover needs at least ceil(v / depth) chains, and the
         minimum chain cover equals the width (Dilworth) *)
      w >= entries && w <= v && w >= 1 && w >= (v + depth - 1) / depth)

let prop_bitset_vs_reference =
  QCheck.Test.make ~count:200 ~name:"bitset matches Set reference"
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 80) (list_size (int_range 0 60) (int_range 0 200)))
       ~print:(fun (n, ops) ->
         Printf.sprintf "n=%d ops=%s" n
           (String.concat ";" (List.map string_of_int ops))))
    (fun (n, ops) ->
      let module IS = Set.Make (Int) in
      let bs = Bitset.create n in
      let reference = ref IS.empty in
      List.iter
        (fun op ->
          let i = op mod n in
          if op mod 7 = 0 then begin
            Bitset.clear bs;
            reference := IS.empty
          end
          else begin
            Bitset.add bs i;
            reference := IS.add i !reference
          end)
        ops;
      Bitset.elements bs = IS.elements !reference
      && Bitset.cardinal bs = IS.cardinal !reference)

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap drains sorted"
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.add h) xs;
      List.map (fun _ -> Heap.pop_exn h) xs = List.sort compare xs)

let prop_upper_bound_dominates =
  QCheck.Test.make ~count:30 ~name:"upper bound >= zero-crash latency"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      List.for_all
        (fun sched ->
          Schedule.latency_upper_bound sched
          >= Schedule.latency_zero_crash sched -. 1e-9)
        [ Caft.run ~epsilon:2 costs; Ftsa.run ~epsilon:2 costs ])

let prop_crash_latency_vs_worst =
  QCheck.Test.make ~count:20
    ~name:"every surviving crash replay has positive finite latency"
    arbitrary_instance (fun ((_, m, _) as inst) ->
      let _, costs = build_instance inst in
      let sched = Caft.run ~epsilon:1 costs in
      List.for_all
        (fun p ->
          let out = Replay.crash_from_start sched ~crashed:[ p ] in
          out.Replay.completed
          && Float.is_finite out.Replay.latency
          && out.Replay.latency >= 0.)
        (List.init m Fun.id))

let suite =
  (* fixed generator seed: property failures must be reproducible, and the
     suite must not flake in CI *)
  List.map (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 935528 |]) t)
    [
      prop_random_dag_well_formed;
      prop_schedules_valid;
      prop_caft_resists_exhaustively;
      prop_ftsa_resists_exhaustively;
      prop_replay_matches_static;
      prop_completion_monotone;
      prop_message_bounds;
      prop_caft_outforest_bound;
      prop_granularity_rescale;
      prop_width_bounds;
      prop_bitset_vs_reference;
      prop_heap_sorts;
      prop_upper_bound_dominates;
      prop_crash_latency_vs_worst;
    ]
