(* Tests for schedule metrics, serialization and Monte-Carlo campaigns. *)

let test_metrics_basic () =
  let _, costs = Helpers.random_instance ~seed:51 () in
  let sched = Caft.run ~epsilon:1 costs in
  let m = Metrics.analyze sched in
  Helpers.check_float "horizon" (Schedule.makespan sched) m.Metrics.horizon;
  Helpers.check_float "latency" (Schedule.latency_zero_crash sched)
    m.Metrics.latency;
  Helpers.check_int "message count" (Schedule.message_count sched)
    m.Metrics.message_count;
  Helpers.check_bool "utilization in range" true
    (m.Metrics.mean_utilization >= 0.
    && m.Metrics.mean_utilization <= m.Metrics.max_utilization
    && m.Metrics.max_utilization <= 1. +. 1e-9);
  (* total exec equals the sum over replicas of the cost matrix entries *)
  let expected =
    List.fold_left
      (fun acc (r : Schedule.replica) ->
        acc +. Costs.exec costs r.Schedule.r_task r.Schedule.r_proc)
      0.
      (Schedule.all_replicas sched)
  in
  Alcotest.(check (float 1e-3)) "total exec" expected m.Metrics.total_exec;
  Helpers.check_int "per-proc rows" 6 (List.length m.Metrics.per_proc);
  Helpers.check_bool "imbalance >= 1" true (m.Metrics.replica_imbalance >= 1.)

let test_metrics_empty_comm () =
  let dag = Dag.make ~n:3 ~edges:[] () in
  let platform = Helpers.uniform_platform 4 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let sched = Caft.run ~epsilon:1 costs in
  let m = Metrics.analyze sched in
  Helpers.check_int "no messages" 0 m.Metrics.message_count;
  Helpers.check_float "no comm time" 0. m.Metrics.total_comm_time

let test_metrics_pp () =
  let _, costs = Helpers.random_instance ~seed:52 () in
  let sched = Ftsa.run ~epsilon:1 costs in
  let s = Format.asprintf "%a" Metrics.pp (Metrics.analyze sched) in
  Helpers.check_bool "pp non-empty" true (String.length s > 100)

let test_io_roundtrip () =
  List.iter
    (fun (name, sched) ->
      let text = Schedule_io.to_string sched in
      let back = Schedule_io.of_string text in
      Helpers.check_bool (name ^ ": algorithm") true
        (Schedule.algorithm back = Schedule.algorithm sched);
      Helpers.check_int (name ^ ": epsilon") (Schedule.epsilon sched)
        (Schedule.epsilon back);
      Helpers.check_float (name ^ ": latency")
        (Schedule.latency_zero_crash sched)
        (Schedule.latency_zero_crash back);
      Helpers.check_float (name ^ ": upper")
        (Schedule.latency_upper_bound sched)
        (Schedule.latency_upper_bound back);
      Helpers.check_int (name ^ ": messages") (Schedule.message_count sched)
        (Schedule.message_count back);
      Helpers.check_bool (name ^ ": reloaded schedule is valid") true
        (Validate.is_valid back);
      (* replay agrees after the round trip *)
      let out1 = Replay.crash_from_start sched ~crashed:[ 0 ] in
      let out2 = Replay.crash_from_start back ~crashed:[ 0 ] in
      Helpers.check_bool (name ^ ": replay completion matches")
        out1.Replay.completed out2.Replay.completed;
      if out1.Replay.completed then
        Helpers.check_float (name ^ ": replay latency matches")
          out1.Replay.latency out2.Replay.latency)
    (let _, costs = Helpers.random_instance ~seed:53 () in
     [
       ("CAFT", Caft.run ~epsilon:2 costs);
       ("FTSA", Ftsa.run ~epsilon:1 costs);
       ("HEFT", Heft.run costs);
     ])

let test_io_file_roundtrip () =
  let _, costs = Helpers.random_instance ~seed:54 () in
  let sched = Caft.run ~epsilon:1 costs in
  let path = Filename.temp_file "ftsched" ".sched" in
  Schedule_io.to_file path sched;
  let back = Schedule_io.of_file path in
  Sys.remove path;
  Helpers.check_float "file roundtrip latency"
    (Schedule.latency_zero_crash sched)
    (Schedule.latency_zero_crash back)

let test_io_rejects_garbage () =
  let check_fails name text =
    match Schedule_io.of_string text with
    | exception Schedule_io.Parse_error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: garbage accepted" name
  in
  check_fails "empty" "";
  check_fails "bad header" "not-a-schedule v1\nend\n";
  check_fails "unknown directive" "ftsched-schedule v1\nbogus 1\nend\n";
  check_fails "missing end" "ftsched-schedule v1\nepsilon 0\ntasks 1\nprocs 1\n";
  check_fails "bad int"
    "ftsched-schedule v1\nepsilon x\ntasks 1\nprocs 1\nend\n"

let test_monte_carlo_from_start () =
  let _, costs = Helpers.random_instance ~seed:55 () in
  let epsilon = 2 in
  let sched = Caft.run ~epsilon costs in
  let report =
    Monte_carlo.run ~runs:200 ~crashes:epsilon ~mode:Monte_carlo.From_start sched
  in
  Helpers.check_int "all runs complete" 200 report.Monte_carlo.completed;
  Helpers.check_float "zero failure rate" 0. report.Monte_carlo.failure_rate;
  (match report.Monte_carlo.latency with
  | Some s ->
      Helpers.check_bool "latencies at least zero-crash-ish" true
        (s.Stats.min > 0.)
  | None -> Alcotest.fail "expected latency summary");
  Helpers.check_bool "worst slowdown sane" true
    (report.Monte_carlo.worst_slowdown >= 0.99)

let test_monte_carlo_timed () =
  let _, costs = Helpers.random_instance ~seed:56 () in
  let sched = Caft.run ~epsilon:1 costs in
  let horizon = Schedule.makespan sched in
  let report =
    Monte_carlo.run ~runs:300 ~crashes:1 ~mode:(Monte_carlo.Timed horizon) sched
  in
  (* timed single crashes on an epsilon=1 schedule always complete *)
  Helpers.check_int "timed runs complete" 300 report.Monte_carlo.completed;
  let s = Format.asprintf "%a" Monte_carlo.pp report in
  Helpers.check_bool "pp renders" true (String.length s > 20)

let test_monte_carlo_beyond_epsilon () =
  (* 3 crashes against an epsilon=1 schedule on 5 processors must lose
     tasks at least sometimes *)
  let dag = Families.chain 8 in
  let platform = Helpers.uniform_platform 5 in
  let costs = Helpers.flat_costs dag platform in
  let sched = Caft.run ~epsilon:1 costs in
  let report =
    Monte_carlo.run ~runs:200 ~crashes:3 ~mode:Monte_carlo.From_start sched
  in
  Helpers.check_bool "some failures beyond epsilon" true
    (report.Monte_carlo.failure_rate > 0.)

let test_new_families () =
  let bf = Families.butterfly 3 in
  Helpers.check_int "butterfly tasks" 32 (Dag.task_count bf);
  Helpers.check_int "butterfly edges" (2 * 8 * 3) (Dag.edge_count bf);
  Helpers.check_int "butterfly depth" 4 (Dag.longest_path_length bf);
  let ch = Families.cholesky 4 in
  (* T potrf + T(T-1)/2 trsm + T(T-1)/2 syrk + T(T-1)(T-2)/6 gemm *)
  Helpers.check_int "cholesky tasks" (4 + 6 + 6 + 4) (Dag.task_count ch);
  Helpers.check_bool "cholesky connected" true (Oracle_classify.is_connected ch);
  (* schedule both fault-tolerantly and verify *)
  List.iter
    (fun dag ->
      let platform = Helpers.uniform_platform 6 in
      let costs = Helpers.flat_costs ~c:50. dag platform in
      let sched = Caft.run ~epsilon:1 costs in
      Helpers.check_bool "valid" true (Validate.is_valid sched);
      Helpers.check_bool "resists" true
        (Fault_check.check ~epsilon:1 sched).Fault_check.resists)
    [ bf; ch ]

let suite =
  [
    Alcotest.test_case "metrics basics" `Quick test_metrics_basic;
    Alcotest.test_case "metrics without communication" `Quick
      test_metrics_empty_comm;
    Alcotest.test_case "metrics pretty-print" `Quick test_metrics_pp;
    Alcotest.test_case "schedule_io roundtrip" `Quick test_io_roundtrip;
    Alcotest.test_case "schedule_io file roundtrip" `Quick
      test_io_file_roundtrip;
    Alcotest.test_case "schedule_io rejects garbage" `Quick
      test_io_rejects_garbage;
    Alcotest.test_case "monte-carlo from-start" `Quick
      test_monte_carlo_from_start;
    Alcotest.test_case "monte-carlo timed" `Quick test_monte_carlo_timed;
    Alcotest.test_case "monte-carlo beyond epsilon" `Quick
      test_monte_carlo_beyond_epsilon;
    Alcotest.test_case "butterfly and cholesky" `Quick test_new_families;
  ]
