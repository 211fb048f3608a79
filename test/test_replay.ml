(* Unit tests for the fail-stop replay simulator. *)

let mk_replica ?(inputs = []) ~task ~index ~proc ~start ~finish () =
  {
    Schedule.r_task = task;
    r_index = index;
    r_proc = proc;
    r_start = start;
    r_finish = finish;
    r_inputs = inputs;
  }

let msg ~stask ~sreplica ~sproc ~sfinish ~volume ~dst ~leg_start ~arrival =
  Schedule.Message
    {
      Netstate.m_source =
        {
          Netstate.s_task = stask;
          s_replica = sreplica;
          s_proc = sproc;
          s_finish = sfinish;
          s_volume = volume;
        };
      m_dst_proc = dst;
      m_duration = volume;
      m_leg_start = leg_start;
      m_leg_finish = leg_start +. volume;
      m_arrival = arrival;
    }

(* chain 0 -> 1 with epsilon = 1:
   t0: replica 0 on P0 [0,5], replica 1 on P1 [0,5]
   t1: replica 0 on P0 [5,10] (local from t0[0]);
       replica 1 on P2 [15,20] (message from t0[1] on P1, vol 10) *)
let chain_sched () =
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 10.) ] () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  Schedule.create ~algorithm:"hand" ~epsilon:1 ~model:Netstate.One_port ~costs
    [
      mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
      mk_replica ~task:0 ~index:1 ~proc:1 ~start:0. ~finish:5. ();
      mk_replica ~task:1 ~index:0 ~proc:0 ~start:5. ~finish:10.
        ~inputs:[ Schedule.Local { l_pred = 0; l_pred_replica = 0; l_finish = 5. } ]
        ();
      mk_replica ~task:1 ~index:1 ~proc:2 ~start:15. ~finish:20.
        ~inputs:
          [
            msg ~stask:0 ~sreplica:1 ~sproc:1 ~sfinish:5. ~volume:10. ~dst:2
              ~leg_start:5. ~arrival:15.;
          ]
        ();
    ]

let test_fault_free_matches_static () =
  let s = chain_sched () in
  let out = Replay.fault_free s in
  Helpers.check_bool "completed" true out.Replay.completed;
  Helpers.check_float "latency" 10. out.Replay.latency;
  (match out.Replay.replicas.(1).(1) with
  | Replay.Ran { start; finish } ->
      Helpers.check_float "replica start" 15. start;
      Helpers.check_float "replica finish" 20. finish
  | _ -> Alcotest.fail "replica should run")

let test_crash_kills_processor () =
  let s = chain_sched () in
  let out = Replay.crash_from_start s ~crashed:[ 0 ] in
  Helpers.check_bool "completed via survivors" true out.Replay.completed;
  (* both replicas on P0 are gone; latency set by t1[1] at 20 *)
  Helpers.check_float "latency through replica chain" 20. out.Replay.latency;
  (match out.Replay.replicas.(0).(0) with
  | Replay.Crashed -> ()
  | _ -> Alcotest.fail "t0[0] should crash");
  (match out.Replay.replicas.(1).(0) with
  | Replay.Crashed -> ()
  | _ -> Alcotest.fail "t1[0] should crash");
  let m = Platform.proc_count (Schedule.platform s) in
  Alcotest.check_raises "from-start processor out of range"
    (Invalid_argument "Scenario: processor out of range") (fun () ->
      ignore (Replay.crash_from_start s ~crashed:[ m ]));
  Alcotest.check_raises "timed processor out of range"
    (Invalid_argument "Scenario: processor out of range") (fun () ->
      ignore (Replay.crash_timed s ~crashes:[ (-1, 0.) ]))

let test_starvation_propagates () =
  let s = chain_sched () in
  (* crash P1: t0[1] dead; t1[1] on P2 has only the P1 message -> starved *)
  let out = Replay.crash_from_start s ~crashed:[ 1 ] in
  Helpers.check_bool "still completed (P0 chain alive)" true out.Replay.completed;
  Helpers.check_float "latency from local chain" 10. out.Replay.latency;
  match out.Replay.replicas.(1).(1) with
  | Replay.Starved 0 -> ()
  | Replay.Starved p -> Alcotest.failf "starved by unexpected pred %d" p
  | _ -> Alcotest.fail "t1[1] should starve"

let test_total_failure_detected () =
  let s = chain_sched () in
  (* two crashes exceed epsilon=1: kill both chains *)
  let out = Replay.crash_from_start s ~crashed:[ 0; 1 ] in
  Helpers.check_bool "not completed" false out.Replay.completed;
  Helpers.check_bool "latency is nan" true (Float.is_nan out.Replay.latency);
  Helpers.check_bool "failed tasks" true (out.Replay.failed_tasks = [ 0; 1 ])

let test_starved_replica_frees_processor () =
  (* P1 hosts t1[1] (starved when P0 dies... here we starve it by crashing
     its only source) then t2[0]; t2 must shift earlier into the freed slot *)
  let dag = Dag.make ~n:3 ~edges:[ (0, 1, 10.) ] () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let s =
    Schedule.create ~algorithm:"hand" ~epsilon:0 ~model:Netstate.One_port ~costs
      [
        mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
        mk_replica ~task:1 ~index:0 ~proc:1 ~start:15. ~finish:20.
          ~inputs:
            [
              msg ~stask:0 ~sreplica:0 ~sproc:0 ~sfinish:5. ~volume:10. ~dst:1
                ~leg_start:5. ~arrival:15.;
            ]
          ();
        mk_replica ~task:2 ~index:0 ~proc:1 ~start:20. ~finish:25. ();
      ]
  in
  let out = Replay.crash_from_start s ~crashed:[ 0 ] in
  Helpers.check_bool "t0 and t1 fail" true
    (out.Replay.failed_tasks = [ 0; 1 ]);
  match out.Replay.replicas.(2).(0) with
  | Replay.Ran { start; finish } ->
      Helpers.check_float "t2 pulled earlier" 0. start;
      Helpers.check_float "t2 finish" 5. finish
  | _ -> Alcotest.fail "t2 should run"

let test_timed_crash_keeps_delivered_results () =
  let s = chain_sched () in
  (* P1 dies at t=12: t0[1] (finish 5) survived and its message (leg
     [5,15]... leg_finish 15 > 12) dies mid-flight -> t1[1] starves *)
  let out = Replay.crash_timed s ~crashes:[ (1, 12.) ] in
  Helpers.check_bool "completed" true out.Replay.completed;
  (match out.Replay.replicas.(0).(1) with
  | Replay.Ran _ -> ()
  | _ -> Alcotest.fail "t0[1] finished before the crash");
  (match out.Replay.replicas.(1).(1) with
  | Replay.Starved _ -> ()
  | _ -> Alcotest.fail "t1[1] starves on the cut message");
  (* P1 dies at t=16: the message (delivered at 15) got through *)
  let out2 = Replay.crash_timed s ~crashes:[ (1, 16.) ] in
  match out2.Replay.replicas.(1).(1) with
  | Replay.Ran { finish; _ } -> Helpers.check_float "t1[1] runs" 20. finish
  | _ -> Alcotest.fail "t1[1] should run: message was delivered"

let test_receiver_timed_crash () =
  let s = chain_sched () in
  (* P2 dies at 17: its replica t1[1] would finish at 20 -> dead; but the
     P0 chain completes *)
  let out = Replay.crash_timed s ~crashes:[ (2, 17.) ] in
  Helpers.check_bool "completed" true out.Replay.completed;
  Helpers.check_float "latency" 10. out.Replay.latency;
  match out.Replay.replicas.(1).(1) with
  | Replay.Crashed -> ()
  | _ -> Alcotest.fail "t1[1] dies mid-execution"

let test_replay_scheduler_outputs () =
  (* replays of real schedules complete and match static latency at zero
     crash, for all algorithms and both models *)
  List.iter
    (fun model ->
      List.iter
        (fun (name, schedule) ->
          let _, costs = Helpers.random_instance ~seed:5 () in
          let sched = schedule ~model ~epsilon:2 costs in
          let out = Replay.fault_free sched in
          Helpers.check_bool (name ^ " completes") true out.Replay.completed;
          Helpers.check_float
            (name ^ " latency matches")
            (Schedule.latency_zero_crash sched)
            out.Replay.latency)
        [
          ("CAFT", fun ~model ~epsilon costs -> Caft.run ~model ~epsilon costs);
          ("FTSA", fun ~model ~epsilon costs -> Ftsa.run ~model ~epsilon costs);
          ("FTBAR", fun ~model ~epsilon costs -> Ftbar.run ~model ~epsilon costs);
        ])
    [ Netstate.One_port; Netstate.Macro_dataflow ]

let test_crash_latency_bounded_by_replay () =
  (* with crashes, real latency may exceed the static zero-crash latency
     but replicas never start before their data; sanity: latency is finite
     and at least the zero-crash value of the surviving work *)
  let _, costs = Helpers.random_instance ~seed:6 () in
  let sched = Caft.run ~epsilon:2 costs in
  let out = Replay.crash_from_start sched ~crashed:[ 0; 1 ] in
  Helpers.check_bool "completed" true out.Replay.completed;
  Helpers.check_bool "latency positive and finite" true
    (out.Replay.latency > 0. && Float.is_finite out.Replay.latency)

let test_timed_equivalences () =
  (* timed crash at the horizon = no crash; timed crash at <= 0 = crash
     from start *)
  let _, costs = Helpers.random_instance ~seed:84 () in
  let sched = Caft.run ~epsilon:2 costs in
  let horizon = Schedule.makespan sched +. 1. in
  let late = Replay.crash_timed sched ~crashes:[ (0, horizon); (3, horizon) ] in
  let none = Replay.fault_free sched in
  Helpers.check_bool "late crash completes" true late.Replay.completed;
  Helpers.check_float "late crash = fault free" none.Replay.latency
    late.Replay.latency;
  let early = Replay.crash_timed sched ~crashes:[ (0, -1.); (3, -1.) ] in
  let start = Replay.crash_from_start sched ~crashed:[ 0; 3 ] in
  Helpers.check_bool "early crash matches from-start completion"
    start.Replay.completed early.Replay.completed;
  if start.Replay.completed then
    Helpers.check_float "early crash = from-start latency" start.Replay.latency
      early.Replay.latency

let suite =
  [
    Alcotest.test_case "fault-free matches static" `Quick
      test_fault_free_matches_static;
    Alcotest.test_case "crash kills processor" `Quick test_crash_kills_processor;
    Alcotest.test_case "starvation propagates" `Quick test_starvation_propagates;
    Alcotest.test_case "total failure detected" `Quick test_total_failure_detected;
    Alcotest.test_case "starved replica frees processor" `Quick
      test_starved_replica_frees_processor;
    Alcotest.test_case "timed crash keeps delivered results" `Quick
      test_timed_crash_keeps_delivered_results;
    Alcotest.test_case "receiver timed crash" `Quick test_receiver_timed_crash;
    Alcotest.test_case "replay of real schedules" `Quick
      test_replay_scheduler_outputs;
    Alcotest.test_case "crash latency sanity" `Quick
      test_crash_latency_bounded_by_replay;
    Alcotest.test_case "timed-crash equivalences" `Quick test_timed_equivalences;
  ]
