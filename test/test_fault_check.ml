(* Unit tests for crash-set enumeration and fault checking. *)

let test_combinations () =
  let combos n k = List.of_seq (Oracle.combinations n k) in
  Helpers.check_bool "3 choose 2" true
    (combos 3 2 = [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]);
  Helpers.check_bool "k=0" true (combos 4 0 = [ [] ]);
  Helpers.check_bool "k=n" true (combos 3 3 = [ [ 0; 1; 2 ] ]);
  Helpers.check_bool "k>n empty" true (combos 2 3 = []);
  Helpers.check_int "5 choose 3 count" 10 (List.length (combos 5 3));
  Helpers.check_bool "all distinct" true
    (let l = combos 6 3 in
     List.length (List.sort_uniq compare l) = List.length l);
  (* the check's own enumeration, counted as [count_combinations] does *)
  List.iter
    (fun (n, k) ->
      let all = combos n k in
      Helpers.check_bool
        (Printf.sprintf "subsets %d %d" n k)
        true
        (List.of_seq (Fault_check.subsets ~n ~k) = all);
      Helpers.check_int
        (Printf.sprintf "subsets %d %d count" n k)
        (Fault_check.count_combinations n k)
        (List.length all))
    [ (3, 2); (4, 0); (3, 3); (6, 3); (7, 1); (8, 4); (2, 3) ]

let test_count_combinations () =
  Helpers.check_int "10 choose 3" 120 (Fault_check.count_combinations 10 3);
  Helpers.check_int "20 choose 5" 15504 (Fault_check.count_combinations 20 5);
  Helpers.check_int "n choose 0" 1 (Fault_check.count_combinations 7 0);
  Helpers.check_int "n choose n" 1 (Fault_check.count_combinations 7 7);
  Helpers.check_int "k > n" 0 (Fault_check.count_combinations 3 5)

let test_check_accepts_tolerant_schedule () =
  let _, costs = Helpers.random_instance ~seed:41 () in
  let sched = Caft.run ~epsilon:2 costs in
  let report = Fault_check.check ~epsilon:2 sched in
  Helpers.check_bool "resists" true report.Fault_check.resists;
  Helpers.check_bool "exhaustive on 6 procs" true report.Fault_check.exhaustive;
  Helpers.check_int "C(6,2) scenarios" 15 report.Fault_check.scenarios_checked;
  Helpers.check_bool "worst latency finite" true
    (Float.is_finite report.Fault_check.worst_latency)

let test_check_rejects_unreplicated () =
  (* a fault-free schedule cannot resist 1 failure (any used proc kills it) *)
  let _, costs = Helpers.random_instance ~seed:42 () in
  let sched = Heft.run costs in
  let report = Fault_check.check ~epsilon:1 sched in
  Helpers.check_bool "heft does not resist" false report.Fault_check.resists;
  match report.Fault_check.counterexample with
  | Some (crashed, failed) ->
      Helpers.check_int "single crash" 1 (List.length crashed);
      Helpers.check_bool "some task failed" true (failed <> [])
  | None -> Alcotest.fail "expected a counterexample"

let test_check_beyond_replication () =
  (* epsilon-replicated schedules generally break at epsilon+1 crashes on
     small platforms; verify the checker can detect that too *)
  let dag = Families.chain 6 in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs dag platform in
  let sched = Caft.run ~epsilon:1 costs in
  let report1 = Fault_check.check ~epsilon:1 sched in
  Helpers.check_bool "resists epsilon" true report1.Fault_check.resists;
  let report2 = Fault_check.check ~epsilon:2 sched in
  (* with only 3 processors, 2 crashes leave one processor: a 2-replica
     schedule cannot have a full chain on every single processor unless
     it co-locates everything; either outcome is legal, but if it reports
     failure there must be a concrete counterexample *)
  if not report2.Fault_check.resists then
    Helpers.check_bool "counterexample provided" true
      (report2.Fault_check.counterexample <> None)

let test_sampling_mode () =
  let _, costs = Helpers.random_instance ~seed:43 ~m:8 () in
  let sched = Caft.run ~epsilon:2 costs in
  let report = Fault_check.check ~max_exhaustive:5 ~samples:40 ~epsilon:2 sched in
  Helpers.check_bool "sampled" false report.Fault_check.exhaustive;
  Helpers.check_int "sample count" 40 report.Fault_check.scenarios_checked;
  Helpers.check_bool "resists in sampled mode" true report.Fault_check.resists

let test_scenarios () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let procs = Scenario.uniform_procs rng ~m:10 ~count:3 in
    Helpers.check_int "count" 3 (List.length procs);
    Helpers.check_bool "distinct" true
      (List.length (List.sort_uniq compare procs) = 3);
    Helpers.check_bool "range" true (List.for_all (fun p -> p >= 0 && p < 10) procs)
  done;
  let timed = Scenario.timed rng ~m:10 ~count:4 ~horizon:100. in
  Helpers.check_int "timed count" 4 (List.length timed);
  List.iter
    (fun (_, tau) -> Helpers.check_bool "tau in horizon" true (tau >= 0. && tau < 100.))
    timed;
  (* count > m saturates *)
  Helpers.check_int "saturation" 5
    (List.length (Scenario.uniform_procs rng ~m:5 ~count:9))

let suite =
  [
    Alcotest.test_case "combinations enumeration" `Quick test_combinations;
    Alcotest.test_case "binomial counting" `Quick test_count_combinations;
    Alcotest.test_case "accepts tolerant schedule" `Quick
      test_check_accepts_tolerant_schedule;
    Alcotest.test_case "rejects unreplicated schedule" `Quick
      test_check_rejects_unreplicated;
    Alcotest.test_case "beyond replication level" `Quick
      test_check_beyond_replication;
    Alcotest.test_case "sampling mode" `Quick test_sampling_mode;
    Alcotest.test_case "scenario generation" `Quick test_scenarios;
  ]

(* -- Monte Carlo against the exact failing fraction --------------------- *)

(* The exact fraction of the C(m, k) from-start crash sets that some
   task does not survive: one [Replay.scan] over every k-subset, with a
   [consume] that never stops. *)
let exact_failing_fraction sched ~k =
  let c = Replay.compile sched in
  let m = Replay.proc_count c in
  let total = Fault_check.count_combinations m k in
  let failing = ref 0 in
  let consumed =
    Replay.scan c ~fill:Scenario.write_from_start
      ~consume:(fun _ res j ->
        if Float.is_nan res.Replay.br_latency.(j) then incr failing;
        true)
      (Fault_check.subsets ~n:m ~k)
  in
  Helpers.check_int "every subset consumed" total consumed;
  float_of_int !failing /. float_of_int total

(* Beyond epsilon, [Monte_carlo.run]'s failure rate over [runs] uniform
   3-crash scenarios is a binomial estimate of the exact fraction: it
   must lie within four standard deviations of it.  The schedules (m =
   12, epsilon = 2) fail on 1, 2, 5 and 93 of the 220 crash sets; at
   20,000 runs, a count off by one subset on either of the first two is
   outside the bound. *)
let test_monte_carlo_matches_exact () =
  List.iter
    (fun (tasks, seed) ->
      let _, costs = Helpers.random_instance ~seed ~m:12 ~tasks () in
      let sched = Caft.run ~seed ~epsilon:2 costs in
      let p = exact_failing_fraction sched ~k:3 in
      Helpers.check_bool "some crash set fails" true (p > 0.);
      let runs = 20_000 in
      let r =
        Monte_carlo.run ~seed ~runs ~crashes:3 ~mode:Monte_carlo.From_start
          sched
      in
      let f = r.Monte_carlo.failure_rate in
      let sigma = sqrt (p *. (1. -. p) /. float_of_int runs) in
      Helpers.check_bool
        (Printf.sprintf
           "tasks=%d seed=%d: failure rate %.5f within 4 sigma (%.5f) of the \
            exact %.5f"
           tasks seed f sigma p)
        true
        (Float.abs (f -. p) <= 4. *. sigma))
    [ (4, 7); (4, 4); (6, 6); (10, 2) ]

let suite =
  suite
  @ [
      Alcotest.test_case "Monte Carlo within 4 sigma of the exact fraction"
        `Quick test_monte_carlo_matches_exact;
    ]
