(* Unit tests for the free-list (Prio) and the scheduling workspace. *)

let test_prio_order_on_chain () =
  let dag = Helpers.chain3 () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:10. dag platform in
  let prio = Prio.create ~rng:(Rng.create 1) costs in
  Helpers.check_int "remaining" 3 (Prio.remaining prio);
  Helpers.check_int "one free task" 1 (Prio.free_count prio);
  Helpers.check_bool "entry first" true (Prio.pop prio = Some 0);
  Helpers.check_bool "nothing else free" true (Prio.pop prio = None);
  Prio.mark_scheduled prio 0 ~completion:10.;
  Helpers.check_bool "successor released" true (Prio.pop prio = Some 1);
  Prio.mark_scheduled prio 1 ~completion:21.;
  Helpers.check_bool "last released" true (Prio.pop prio = Some 2);
  Prio.mark_scheduled prio 2 ~completion:32.;
  Helpers.check_bool "done" true (Prio.is_done prio)

let test_prio_priority_order () =
  (* fork with one heavy branch: heavier bottom level pops first.
     tasks: 0 -> 1 (vol 1), 0 -> 2 (vol 1); exec(1) = 100, exec(2) = 1 *)
  let dag = Dag.make ~n:3 ~edges:[ (0, 1, 1.); (0, 2, 1.) ] () in
  let platform = Helpers.uniform_platform 2 in
  let costs =
    Costs.of_matrix dag platform [| [| 5.; 5. |]; [| 100.; 100. |]; [| 1.; 1. |] |]
  in
  let prio = Prio.create ~rng:(Rng.create 1) costs in
  Helpers.check_bool "root first" true (Prio.pop prio = Some 0);
  Prio.mark_scheduled prio 0 ~completion:5.;
  Helpers.check_int "both children free" 2 (Prio.free_count prio);
  Helpers.check_bool "heavy child first" true (Prio.pop prio = Some 1);
  Helpers.check_bool "light child second" true (Prio.pop prio = Some 2)

let test_prio_dynamic_update () =
  (* scheduling the root with a *late* completion raises the successor's
     top level, hence its priority *)
  let dag = Helpers.chain3 () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:10. dag platform in
  let prio = Prio.create ~rng:(Rng.create 1) costs in
  let before = Prio.priority prio 1 in
  ignore (Prio.pop prio);
  Prio.mark_scheduled prio 0 ~completion:500.;
  Helpers.check_bool "priority raised by late completion" true
    (Prio.priority prio 1 > before)

let test_prio_double_schedule_rejected () =
  let dag = Helpers.chain3 () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs dag platform in
  let prio = Prio.create ~rng:(Rng.create 1) costs in
  ignore (Prio.pop prio);
  Prio.mark_scheduled prio 0 ~completion:1.;
  Alcotest.check_raises "double schedule"
    (Invalid_argument "Prio.mark_scheduled: already scheduled") (fun () ->
      Prio.mark_scheduled prio 0 ~completion:1.)

let test_prio_tie_randomization () =
  (* a fork of identical children: different seeds should (sometimes)
     produce different pop orders *)
  let dag = Families.fork ~volume:10. 6 in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs dag platform in
  let order seed =
    let prio = Prio.create ~rng:(Rng.create seed) costs in
    ignore (Prio.pop prio);
    Prio.mark_scheduled prio 0 ~completion:1.;
    List.init 6 (fun _ -> Option.get (Prio.pop prio))
  in
  let orders = List.init 8 order in
  Helpers.check_bool "ties broken differently across seeds" true
    (List.length (List.sort_uniq compare orders) > 1);
  Helpers.check_bool "same seed, same order" true (order 3 = order 3)

let test_workspace_placement () =
  let dag = Helpers.chain3 () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:10. dag platform in
  let ws = Workspace.create ~epsilon:1 costs in
  let net = Workspace.net ws in
  let b0 = Oracle_booking.book_exec_only net ~proc:0 ~exec:10. in
  let r0 = Workspace.place ws ~task:0 ~proc:0 b0 in
  Helpers.check_int "first index" 0 r0.Schedule.r_index;
  let b1 = Oracle_booking.book_exec_only net ~proc:1 ~exec:10. in
  let r1 = Workspace.place ws ~task:0 ~proc:1 b1 in
  Helpers.check_int "second index" 1 r1.Schedule.r_index;
  Helpers.check_int "placed count" 2 (Workspace.placed_count ws 0);
  Helpers.check_bool "procs_of" true
    (List.sort compare (Workspace.procs_of ws 0) = [ 0; 1 ]);
  Helpers.check_bool "is_placed_on" true (Workspace.is_placed_on ws 0 1);
  Helpers.check_bool "not placed on 2" false (Workspace.is_placed_on ws 0 2);
  Helpers.check_float "completion lower" 10. (Workspace.completion_lower ws 0)

let test_workspace_sources () =
  let dag = Helpers.chain3 () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:10. dag platform in
  let ws = Workspace.create ~epsilon:1 costs in
  let net = Workspace.net ws in
  let src = Netstate.create_sources () in
  Alcotest.check_raises "sources of unplaced pred"
    (Invalid_argument "Workspace.load_sources: predecessor 0 of 1 unplaced")
    (fun () -> Workspace.load_sources ws src 1);
  let _ = Workspace.place ws ~task:0 ~proc:0 (Oracle_booking.book_exec_only net ~proc:0 ~exec:10.) in
  let _ = Workspace.place ws ~task:0 ~proc:1 (Oracle_booking.book_exec_only net ~proc:1 ~exec:10.) in
  Workspace.load_sources ws src 1;
  (* commit on a twin of the workspace's state: a fresh state given the
     same two bookings *)
  let booked () =
    let twin = Netstate.create platform in
    ignore (Oracle_booking.book_exec_only twin ~proc:0 ~exec:10.);
    ignore (Oracle_booking.book_exec_only twin ~proc:1 ~exec:10.);
    let b =
      Netstate.commit twin src ~colocate_exclusive:true ~proc:2 ~exec:10.
    in
    b.Netstate.b_messages
  in
  let messages = booked () in
  Helpers.check_int "both replicas are sources" 2 (List.length messages);
  List.iter
    (fun m ->
      Helpers.check_float "volume from edge" 1.
        m.Netstate.m_source.Netstate.s_volume)
    messages;
  Netstate.select_head src ~slot:0 ~replica:0;
  match booked () with
  | [ m ] ->
      let s = m.Netstate.m_source in
      Helpers.check_int "chosen replica" 0 s.Netstate.s_replica;
      Helpers.check_float "chosen finish" 10. s.Netstate.s_finish
  | _ -> Alcotest.fail "one-to-one head should send one message"

let test_workspace_overfill_rejected () =
  let dag = Dag.make ~n:1 ~edges:[] () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs dag platform in
  let ws = Workspace.create ~epsilon:0 costs in
  let net = Workspace.net ws in
  let _ = Workspace.place ws ~task:0 ~proc:0 (Oracle_booking.book_exec_only net ~proc:0 ~exec:1.) in
  Alcotest.check_raises "too many replicas"
    (Invalid_argument "Workspace.place: task already fully replicated")
    (fun () ->
      ignore
        (Workspace.place ws ~task:0 ~proc:1
           (Oracle_booking.book_exec_only net ~proc:1 ~exec:1.)))

let test_workspace_needs_enough_procs () =
  let dag = Dag.make ~n:1 ~edges:[] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs dag platform in
  Alcotest.check_raises "epsilon >= m"
    (Invalid_argument
       "Workspace.create: need at least epsilon+1 processors for replication")
    (fun () -> ignore (Workspace.create ~epsilon:2 costs))

let test_workspace_to_schedule () =
  let dag = Dag.make ~n:1 ~edges:[] () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:2. dag platform in
  let ws = Workspace.create ~epsilon:1 costs in
  let net = Workspace.net ws in
  let _ = Workspace.place ws ~task:0 ~proc:2 (Oracle_booking.book_exec_only net ~proc:2 ~exec:2.) in
  let _ = Workspace.place ws ~task:0 ~proc:0 (Oracle_booking.book_exec_only net ~proc:0 ~exec:2.) in
  let sched = Workspace.to_schedule ~algorithm:"test" ws in
  Helpers.check_bool "valid" true (Validate.is_valid sched);
  Helpers.check_float "latency" 2. (Schedule.latency_zero_crash sched)

let suite =
  [
    Alcotest.test_case "prio on a chain" `Quick test_prio_order_on_chain;
    Alcotest.test_case "prio priority order" `Quick test_prio_priority_order;
    Alcotest.test_case "prio dynamic update" `Quick test_prio_dynamic_update;
    Alcotest.test_case "prio double schedule rejected" `Quick
      test_prio_double_schedule_rejected;
    Alcotest.test_case "prio tie randomization" `Quick test_prio_tie_randomization;
    Alcotest.test_case "workspace placement" `Quick test_workspace_placement;
    Alcotest.test_case "workspace sources" `Quick test_workspace_sources;
    Alcotest.test_case "workspace overfill rejected" `Quick
      test_workspace_overfill_rejected;
    Alcotest.test_case "workspace needs epsilon+1 procs" `Quick
      test_workspace_needs_enough_procs;
    Alcotest.test_case "workspace to schedule" `Quick test_workspace_to_schedule;
  ]
