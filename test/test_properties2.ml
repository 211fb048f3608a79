(* Second property suite: serialization, DOT, transitive reduction,
   batched CAFT, metrics consistency, topology routing. *)

let seed_gen = QCheck.Gen.int_range 0 1_000_000

let instance_gen =
  QCheck.Gen.(
    map3
      (fun seed m tasks -> (seed, m, tasks))
      seed_gen (int_range 4 8) (int_range 8 25))

let arbitrary_instance =
  QCheck.make instance_gen ~print:(fun (seed, m, tasks) ->
      Printf.sprintf "seed=%d m=%d tasks=%d" seed m tasks)

let build_instance (seed, m, tasks) =
  let rng = Rng.create seed in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = tasks; tasks_max = tasks }
  in
  let params = Platform_gen.default ~m () in
  let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
  (dag, costs)

let prop_schedule_io_roundtrip =
  QCheck.Test.make ~count:25 ~name:"schedule_io roundtrips every scheduler"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      List.for_all
        (fun sched ->
          let back = Schedule_io.of_string (Schedule_io.to_string sched) in
          Schedule.algorithm back = Schedule.algorithm sched
          && Schedule.epsilon back = Schedule.epsilon sched
          && Schedule.message_count back = Schedule.message_count sched
          && Flt.approx_eq
               (Schedule.latency_zero_crash back)
               (Schedule.latency_zero_crash sched)
          && Flt.approx_eq
               (Schedule.latency_upper_bound back)
               (Schedule.latency_upper_bound sched)
          && Validate.is_valid back)
        [ Caft.run ~epsilon:1 costs; Ftsa.run ~epsilon:2 costs; Heft.run costs ])

let prop_dot_roundtrip =
  QCheck.Test.make ~count:40 ~name:"DOT export/import preserves structure"
    arbitrary_instance (fun inst ->
      let dag, _ = build_instance inst in
      let back = Dot.parse (Dot.to_string dag) in
      Dag.task_count back = Dag.task_count dag
      && Dag.edge_count back = Dag.edge_count dag
      && Dag.fold_edges
           (fun u v _ acc -> acc && Dag.mem_edge dag ~src:u ~dst:v)
           back true)

let prop_transitive_reduction =
  QCheck.Test.make ~count:40
    ~name:"transitive reduction preserves reachability, minimally"
    arbitrary_instance (fun inst ->
      let dag, _ = build_instance inst in
      let red = Dag.transitive_reduction dag in
      let n = Dag.task_count dag in
      let r1 = Dag.transitive_closure dag in
      let r2 = Dag.transitive_closure red in
      let same_reach = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if r1.(i).(j) <> r2.(i).(j) then same_reach := false
        done
      done;
      (* minimality: removing any kept edge changes reachability, i.e. no
         kept edge is implied by a longer path *)
      let minimal =
        Dag.fold_edges
          (fun u v _ acc ->
            acc
            && not
                 (List.exists
                    (fun w -> w <> v && r1.(w).(v))
                    (Dag.succ_tasks red u)))
          red true
      in
      !same_reach && minimal
      && Dag.edge_count red <= Dag.edge_count dag)

let prop_caft_batch_valid =
  QCheck.Test.make ~count:20 ~name:"batched CAFT valid and tolerant"
    (QCheck.make
       QCheck.Gen.(pair instance_gen (int_range 1 12))
       ~print:(fun ((s, m, t), w) ->
         Printf.sprintf "seed=%d m=%d tasks=%d window=%d" s m t w))
    (fun (inst, window) ->
      let _, costs = build_instance inst in
      let sched = Caft_batch.run ~window ~epsilon:1 costs in
      Validate.is_valid sched
      && (Fault_check.check ~epsilon:1 sched).Fault_check.resists)

let prop_metrics_consistent =
  QCheck.Test.make ~count:30 ~name:"metrics consistent with the schedule"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      let sched = Caft.run ~epsilon:1 costs in
      let m = Metrics.analyze sched in
      let busy_sum =
        List.fold_left (fun acc s -> acc +. s.Metrics.busy) 0. m.Metrics.per_proc
      in
      let replicas_sum =
        List.fold_left (fun acc s -> acc + s.Metrics.replica_count) 0 m.Metrics.per_proc
      in
      Flt.approx_eq ~tol:1e-6 busy_sum m.Metrics.total_exec
      && replicas_sum = List.length (Schedule.all_replicas sched)
      && m.Metrics.message_count = Schedule.message_count sched
      && m.Metrics.horizon >= m.Metrics.latency -. 1e-9)

let prop_topology_routes =
  QCheck.Test.make ~count:30 ~name:"topology routing invariants"
    (QCheck.make
       QCheck.Gen.(int_range 3 9)
       ~print:(fun m -> Printf.sprintf "ring/star over %d procs" m))
    (fun m ->
      List.for_all
        (fun topo ->
          let ok = ref true in
          let mm = Topology.proc_count topo in
          for src = 0 to mm - 1 do
            for dst = 0 to mm - 1 do
              let path = Topology.route topo src dst in
              let d = Topology.delay_between topo src dst in
              (* unit cables: delay = hops; symmetric topologies: symmetric *)
              if d <> float_of_int (List.length path - 1) then ok := false;
              if d <> Topology.delay_between topo dst src then ok := false;
              (* route is a real walk over cables *)
              let rec walk = function
                | a :: (b :: _ as rest) ->
                    (a <> b || false) && List.mem b (Topology.route topo a b)
                    && walk rest
                | _ -> true
              in
              if not (walk path) then ok := false
            done
          done;
          !ok)
        [ Topology.ring (max 2 m); Topology.star (max 2 m) ])

let prop_mc_from_start_never_fails_within_epsilon =
  QCheck.Test.make ~count:15
    ~name:"monte-carlo within epsilon never fails"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      let sched = Caft.run ~epsilon:2 costs in
      let r =
        Monte_carlo.run ~runs:50 ~crashes:2 ~mode:Monte_carlo.From_start sched
      in
      r.Monte_carlo.failure_rate = 0.)

let suite =
  (* fixed generator seed: property failures must be reproducible, and the
     suite must not flake in CI *)
  List.map (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 935528 |]) t)
    [
      prop_schedule_io_roundtrip;
      prop_dot_roundtrip;
      prop_transitive_reduction;
      prop_caft_batch_valid;
      prop_metrics_consistent;
      prop_topology_routes;
      prop_mc_from_start_never_fails_within_epsilon;
    ]
