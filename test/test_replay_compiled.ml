(* Differential and determinism tests for the compile-once replay engine:

   - on >= 100 (seed, model, fabric, insertion) configurations, compile
     the schedule once and assert that [Replay.eval] produces outcomes
     identical (bit-for-bit, including [nan] latencies) to the
     rebuild-per-scenario [Replay.reference] oracle, across fault-free,
     from-start, timed and dead-link scenarios — and that one
     [Replay.eval_batch] block over the same mixed scenario set
     reproduces [eval_latency] / [eval_degraded] per element;
   - [Monte_carlo.run] and [Fault_check.check] reports are byte-identical
     for domains in {1, 2, 4}, for persistent pools of those sizes, and
     with batching off (pre-drawn scenarios / lowest-rank
     counterexample);
   - [Scenario.draw_block] consumes the exact per-scenario RNG stream;
   - [Fault_check.subset_at_rank] agrees with the [combinations]
     enumeration at every rank. *)

let float_eq a b =
  (* bitwise, so nan = nan and 0. <> -0. — "same result" means the same
     word, not merely numerically close *)
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let outcome_equal (a : Replay.outcome) (b : Replay.outcome) =
  a.Replay.completed = b.Replay.completed
  && float_eq a.Replay.latency b.Replay.latency
  && a.Replay.failed_tasks = b.Replay.failed_tasks
  && Array.length a.Replay.replicas = Array.length b.Replay.replicas
  && Array.for_all2
       (fun ra rb ->
         Array.for_all2
           (fun oa ob ->
             match (oa, ob) with
             | Replay.Ran { start = sa; finish = fa },
               Replay.Ran { start = sb; finish = fb } ->
                 float_eq sa sb && float_eq fa fb
             | Replay.Crashed, Replay.Crashed -> true
             | Replay.Starved ta, Replay.Starved tb -> ta = tb
             | _ -> false)
           ra rb)
       a.Replay.replicas b.Replay.replicas

let check_differential name sched fabric ~crash_time ~dead_links compiled =
  let fresh = Replay.reference ?fabric ~dead_links sched ~crash_time in
  let cached = Replay.eval ~dead_links compiled ~crash_time in
  if not (outcome_equal fresh cached) then
    Alcotest.failf "%s: compiled eval differs from fresh replay" name;
  (* eval_latency is the campaign hot path — same verdict, no arrays *)
  let lat = Replay.eval_latency ~dead_links compiled ~crash_time in
  if not (float_eq lat fresh.Replay.latency) then
    Alcotest.failf "%s: eval_latency %.6f <> outcome latency %.6f" name lat
      fresh.Replay.latency

(* One configuration: build a schedule, compile once, then diff several
   scenario shapes against the rebuild-per-scenario oracle. *)
let run_config seed =
  let rng = Rng.create (7000 + seed) in
  let model =
    match seed mod 3 with
    | 0 -> Netstate.Macro_dataflow
    | 1 -> Netstate.One_port
    | _ -> Netstate.Multiport 2
  in
  let insertion = seed mod 2 = 1 in
  let platform, fabric =
    match seed mod 4 with
    | 0 | 1 -> (Helpers.uniform_platform (4 + (seed mod 4)), None)
    | 2 ->
        let topo = Topology.ring (4 + (seed mod 3)) in
        (Topology.platform topo, Some (Topology.fabric topo))
    | _ ->
        let topo = Topology.star (4 + (seed mod 3)) in
        (Topology.platform topo, Some (Topology.fabric topo))
  in
  let m = Platform.proc_count platform in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 16; tasks_max = 16 }
  in
  let costs =
    Costs.create dag platform (fun t p ->
        30. +. (7. *. float_of_int ((t + p) mod 5)))
  in
  let epsilon = 1 + (seed mod 2) in
  let sched =
    Caft.run ~model ?fabric ~insertion ~seed ~epsilon costs
  in
  let compiled = Replay.compile ?fabric sched in
  let name = Printf.sprintf "config %d" seed in
  let scenarios = ref [] in
  let diff ~crash_time ~dead_links =
    check_differential name sched fabric ~crash_time ~dead_links compiled;
    scenarios := (crash_time, dead_links) :: !scenarios
  in
  (* fault-free *)
  let no_crash = Array.make m infinity in
  diff ~crash_time:no_crash ~dead_links:[];
  (* from-start crash sets of size 1, 2 and epsilon+1 (the last one can
     starve tasks: the nan/failed path must agree too) *)
  List.iter
    (fun k ->
      let crashed = Rng.sample_without_replacement rng (min k m) m in
      let crash_time =
        Array.init m (fun p ->
            if List.mem p crashed then neg_infinity else infinity)
      in
      diff ~crash_time ~dead_links:[])
    [ 1; 2; epsilon + 1 ];
  (* timed crashes inside the horizon *)
  let horizon = Schedule.makespan sched in
  let crash_time =
    Array.init m (fun _ ->
        if Rng.bool rng then Rng.float rng horizon else infinity)
  in
  diff ~crash_time ~dead_links:[];
  (* dead links, then a scenario without them again: the scratch arena
     must fully clear the dead-link marks between evals *)
  let dead_links =
    [ (Rng.int rng m, Rng.int rng m); (Rng.int rng m, Rng.int rng m) ]
  in
  diff ~crash_time:no_crash ~dead_links;
  diff ~crash_time:no_crash ~dead_links:[];
  (* the whole mixed scenario set again as ONE struct-of-arrays block:
     eval_batch must reproduce eval_latency (and, in degradation mode,
     eval_degraded under the Monte-Carlo completion rule) per element,
     with the dead-link masks and crash bitsets fully reset between
     neighbouring scenarios of the same block *)
  let scen = Array.of_list (List.rev !scenarios) in
  let block =
    Array.map
      (fun (ct, dl) -> Scenario.of_crash_times ~dead_links:dl ct)
      scen
  in
  let batch = Replay.eval_batch compiled block in
  Array.iteri
    (fun i (ct, dl) ->
      let lat = Replay.eval_latency ~dead_links:dl compiled ~crash_time:ct in
      if not (float_eq batch.Replay.br_latency.(i) lat) then
        Alcotest.failf "%s: eval_batch latency %d: %h <> %h" name i
          batch.Replay.br_latency.(i) lat)
    scen;
  let dbatch = Replay.eval_batch ~degradation:true compiled block in
  Array.iteri
    (fun i (ct, dl) ->
      let d = Replay.eval_degraded ~dead_links:dl compiled ~crash_time:ct in
      if dbatch.Replay.br_tasks.(i) <> d.Replay.d_tasks then
        Alcotest.failf "%s: eval_batch tasks %d" name i;
      if dbatch.Replay.br_sinks.(i) <> d.Replay.d_sinks then
        Alcotest.failf "%s: eval_batch sinks %d" name i;
      if not (float_eq dbatch.Replay.br_frontier.(i) d.Replay.d_frontier) then
        Alcotest.failf "%s: eval_batch frontier %d" name i;
      let expect =
        if d.Replay.d_tasks = d.Replay.d_task_count then d.Replay.d_frontier
        else nan
      in
      if not (float_eq dbatch.Replay.br_latency.(i) expect) then
        Alcotest.failf "%s: eval_batch degraded latency %d" name i)
    scen

let test_differential () =
  (* 108 configurations x 7 scenarios each, spanning all three models,
     clique/ring/star fabrics and both processor policies *)
  for seed = 0 to 107 do
    run_config seed
  done

(* -- domain-count independence ---------------------------------------- *)

let bytes_of x = Marshal.to_string x []

let test_montecarlo_domains () =
  let _, costs = Helpers.random_instance ~seed:11 ~m:6 ~tasks:20 () in
  let sched = Caft.run ~epsilon:1 costs in
  (* beyond epsilon too, so the degradation aggregation path is pinned *)
  List.iter
    (fun crashes ->
      List.iter
        (fun mode ->
          let campaign ?domains ?pool () =
            bytes_of
              (Monte_carlo.run ~seed:5 ~runs:120 ?domains ?pool ~crashes
                 ~mode sched)
          in
          let r1 = campaign ~domains:1 () in
          (* the per-scenario oracle is the differential baseline *)
          Helpers.check_bool "montecarlo matches per-scenario oracle" true
            (r1
            = bytes_of
                (Oracle.monte_carlo ~seed:5 ~runs:120 ~crashes ~mode sched));
          (* spawned-per-call domains *)
          List.iter
            (fun domains ->
              Helpers.check_bool "montecarlo domains byte-identical" true
                (r1 = campaign ~domains ()))
            [ 2; 4 ];
          (* persistent pool of every size, reused across both calls *)
          List.iter
            (fun size ->
              let pool = Parallel.pool ~domains:size () in
              Fun.protect
                ~finally:(fun () -> Parallel.shutdown pool)
                (fun () ->
                  Helpers.check_bool "montecarlo pooled byte-identical" true
                    (r1 = campaign ~pool ());
                  Helpers.check_bool "montecarlo pooled reused" true
                    (r1 = campaign ~pool ())))
            [ 1; 2; 4 ])
        [ Monte_carlo.From_start; Monte_carlo.Timed (Schedule.makespan sched) ])
    [ 1; 2 ] (* within epsilon (plain path) and beyond (degradation path) *)

let test_fault_check_domains () =
  let _, costs = Helpers.random_instance ~seed:4 ~m:7 ~tasks:20 () in
  let sched = Caft.run ~epsilon:1 costs in
  let run_eps epsilon =
    let reports =
      List.map
        (fun domains -> bytes_of (Fault_check.check ~domains ~epsilon sched))
        [ 1; 2; 4 ]
    in
    (match reports with
    | [ r1; r2; r4 ] ->
        Helpers.check_bool "check domains=2 byte-identical" true (r1 = r2);
        Helpers.check_bool "check domains=4 byte-identical" true (r1 = r4)
    | _ -> assert false);
    (* pooled sharding must produce the same report as domain sharding *)
    List.iter
      (fun size ->
        let pool = Parallel.pool ~domains:size () in
        Fun.protect
          ~finally:(fun () -> Parallel.shutdown pool)
          (fun () ->
            Helpers.check_bool "check pooled byte-identical" true
              (List.hd reports = bytes_of (Fault_check.check ~pool ~epsilon sched))))
      [ 1; 2; 4 ]
  in
  (* resisting (full enumeration) and refuting (lowest-rank
     counterexample wins over whatever later shards found) *)
  run_eps 1;
  run_eps 3

let test_fault_check_matches_sequential_semantics () =
  (* the sharded exhaustive check must agree with plain wrappers on a
     known refutation: epsilon+1 crashes on an epsilon=1 schedule *)
  let _, costs = Helpers.random_instance ~seed:9 ~m:6 ~tasks:18 () in
  let sched = Caft.run ~epsilon:1 costs in
  let r = Fault_check.check ~domains:4 ~epsilon:2 sched in
  (match r.Fault_check.counterexample with
  | None -> ()
  | Some (crashed, failed) ->
      let out = Replay.crash_from_start sched ~crashed in
      Helpers.check_bool "counterexample actually fails" false
        out.Replay.completed;
      Helpers.check_bool "failed tasks match replay" true
        (failed = out.Replay.failed_tasks));
  (* scenarios_checked in a refuting run is the 1-based rank of the
     counterexample — by construction at most the total *)
  Helpers.check_bool "checked within total" true
    (r.Fault_check.scenarios_checked <= Fault_check.count_combinations 6 2)

let test_draw_block_stream () =
  (* [Scenario.draw_block] must consume the root generator stream exactly
     as the historical per-scenario [uniform_procs] / [timed] draws did —
     otherwise every pre-PR campaign report would shift *)
  let m = 9 and runs = 40 and count = 3 in
  let block =
    Scenario.draw_block (Rng.create 42) ~m ~count ~mode:Scenario.From_start
      ~runs
  in
  let rng = Rng.create 42 in
  Array.iteri
    (fun i sc ->
      let procs = Scenario.uniform_procs rng ~m ~count in
      let expect = Array.make m infinity in
      List.iter (fun p -> expect.(p) <- neg_infinity) procs;
      if sc.Scenario.sc_crash_time <> expect then
        Alcotest.failf "from-start scenario %d differs from uniform_procs" i;
      Helpers.check_bool "no dead links" true (sc.Scenario.sc_dead_links = []))
    block;
  let horizon = 123.5 in
  let block =
    Scenario.draw_block (Rng.create 43) ~m ~count
      ~mode:(Scenario.Timed horizon) ~runs
  in
  let rng = Rng.create 43 in
  Array.iteri
    (fun i sc ->
      let pairs = Scenario.timed rng ~m ~count ~horizon in
      let expect = Array.make m infinity in
      List.iter (fun (p, t) -> expect.(p) <- t) pairs;
      for p = 0 to m - 1 do
        if not (float_eq sc.Scenario.sc_crash_time.(p) expect.(p)) then
          Alcotest.failf "timed scenario %d proc %d: %h <> %h" i p
            sc.Scenario.sc_crash_time.(p) expect.(p)
      done)
    block

let test_subset_at_rank () =
  List.iter
    (fun (n, k) ->
      let all = List.of_seq (Fault_check.combinations n k) in
      List.iteri
        (fun rank expected ->
          let got =
            Array.to_list (Fault_check.subset_at_rank ~n ~k rank)
          in
          if got <> expected then
            Alcotest.failf "subset_at_rank ~n:%d ~k:%d %d: [%s] <> [%s]" n k
              rank
              (String.concat ";" (List.map string_of_int got))
              (String.concat ";" (List.map string_of_int expected)))
        all;
      Helpers.check_int "rank count" (List.length all)
        (Fault_check.count_combinations n k))
    [ (6, 2); (7, 3); (5, 1); (5, 5); (4, 0); (8, 4) ]

let suite =
  [
    Alcotest.test_case "compiled eval ≡ fresh replay (108 configs)" `Quick
      test_differential;
    Alcotest.test_case "montecarlo domain-count independent" `Quick
      test_montecarlo_domains;
    Alcotest.test_case "fault-check domain-count independent" `Quick
      test_fault_check_domains;
    Alcotest.test_case "fault-check counterexample semantics" `Quick
      test_fault_check_matches_sequential_semantics;
    Alcotest.test_case "draw_block ≡ per-scenario stream" `Quick
      test_draw_block_stream;
    Alcotest.test_case "subset_at_rank ≡ combinations" `Quick
      test_subset_at_rank;
  ]
