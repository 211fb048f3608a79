(* Link-failure replay: lost messages, masking by replication, and the
   equivalence properties between the replay entry points.  A dead link
   is a fault-plan outage that never heals. *)

let cut links =
  List.map
    (fun (src, dst) ->
      Replay.Link_outage
        {
          Netstate.o_src = src;
          o_dst = dst;
          o_from = 0.;
          o_until = infinity;
        })
    links

let replay_cut sched links =
  Replay.eval_plan (Replay.compile sched) (cut links)

let test_dead_link_loses_message () =
  (* chain 0 -> 1, epsilon 0, tasks on different processors: killing the
     only route starves the consumer *)
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 10.) ] () in
  let platform = Helpers.uniform_platform 2 in
  let costs =
    Costs.of_matrix dag platform [| [| 1.; 50. |]; [| 50.; 1. |] |]
  in
  let sched = Heft.run costs in
  (* the cheap placement puts t0 on P0 and t1 on P1 *)
  let out = replay_cut sched [ (0, 1) ] in
  Helpers.check_bool "consumer starves" false out.Replay.completed;
  Helpers.check_bool "t1 failed" true (List.mem 1 out.Replay.failed_tasks);
  (* the reverse direction is unaffected *)
  let out2 = replay_cut sched [ (1, 0) ] in
  Helpers.check_bool "reverse link irrelevant" true out2.Replay.completed

let test_replication_masks_single_link () =
  (* FTSA with epsilon = 1 receives from both replicas of each pred over
     different routes: a single dead link is always masked *)
  let _, costs = Helpers.random_instance ~seed:81 ~m:5 ~tasks:20 () in
  let sched = Ftsa.run ~epsilon:1 costs in
  let c = Replay.compile sched in
  for src = 0 to 4 do
    for dst = 0 to 4 do
      if src <> dst then begin
        let out = Replay.eval_plan c (cut [ (src, dst) ]) in
        Helpers.check_bool
          (Printf.sprintf "FTSA masks dead link %d->%d" src dst)
          true out.Replay.completed
      end
    done
  done

let test_caft_link_vulnerability_is_measurable () =
  (* CAFT's one-to-one channels may depend on specific links; count how
     many single-link failures it masks -- most, but not necessarily all *)
  let _, costs = Helpers.random_instance ~seed:82 ~m:5 ~tasks:20 () in
  let sched = Caft.run ~epsilon:1 costs in
  let c = Replay.compile sched in
  let masked = ref 0 and total = ref 0 in
  for src = 0 to 4 do
    for dst = 0 to 4 do
      if src <> dst then begin
        incr total;
        if (Replay.eval_plan c (cut [ (src, dst) ])).Replay.completed then
          incr masked
      end
    done
  done;
  Helpers.check_bool
    (Printf.sprintf "CAFT masks most single links (%d/%d)" !masked !total)
    true
    (float_of_int !masked >= 0.5 *. float_of_int !total)

let test_no_dead_links_is_fault_free () =
  let _, costs = Helpers.random_instance ~seed:83 () in
  let sched = Caft.run ~epsilon:1 costs in
  let a = replay_cut sched [] in
  let b = Replay.fault_free sched in
  Helpers.check_float "identical latency" b.Replay.latency a.Replay.latency

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

let test_dead_links_with_crashes_compose () =
  (* combining a processor crash and dead links still replays sanely *)
  let _, costs = Helpers.random_instance ~seed:85 ~m:6 () in
  let sched = Caft.run ~epsilon:2 costs in
  let out =
    Replay.eval_plan (Replay.compile sched)
      (Replay.Crash { proc = 5; at = neg_infinity } :: cut [ (0, 1); (4, 2) ])
  in
  (* may or may not complete; outcomes must be classified for every
     replica *)
  Array.iter
    (fun per_task ->
      Array.iter
        (function
          | Replay.Ran { start; finish } | Replay.Lost { start; finish } ->
              Helpers.check_bool "times ordered" true (start <= finish)
          | Replay.Crashed | Replay.Starved _ -> ())
        per_task)
    out.Replay.replicas

let suite =
  [
    Alcotest.test_case "dead link loses the message" `Quick
      test_dead_link_loses_message;
    Alcotest.test_case "replication masks a single link (FTSA)" `Quick
      test_replication_masks_single_link;
    Alcotest.test_case "CAFT link vulnerability measurable" `Quick
      test_caft_link_vulnerability_is_measurable;
    Alcotest.test_case "no dead links = fault free" `Quick
      test_no_dead_links_is_fault_free;
    Alcotest.test_case "timed-crash equivalences" `Quick test_timed_equivalences;
    Alcotest.test_case "links and crashes compose" `Quick
      test_dead_links_with_crashes_compose;
  ]
