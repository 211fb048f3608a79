(* Unit tests for the one-port booking engine: equations (1)-(6) on
   hand-computed scenarios. *)

let src ~task ~replica ~proc ~finish ~volume =
  {
    Netstate.s_task = task;
    s_replica = replica;
    s_proc = proc;
    s_finish = finish;
    s_volume = volume;
  }

let fresh ?(model = Netstate.One_port) m =
  Netstate.create ~model (Helpers.uniform_platform m)

let test_exec_only () =
  let net = fresh 2 in
  let b = Oracle_booking.book_exec_only net ~proc:0 ~exec:5. in
  Helpers.check_float "starts at zero" 0. b.Netstate.b_start;
  Helpers.check_float "finish" 5. b.Netstate.b_finish;
  Helpers.check_float "proc ready advanced" 5. (Netstate.proc_ready net 0);
  let b2 = Oracle_booking.book_exec_only net ~proc:0 ~exec:3. in
  Helpers.check_float "second task appended" 5. b2.Netstate.b_start;
  Helpers.check_float "other proc untouched" 0. (Netstate.proc_ready net 1)

let test_single_message () =
  let net = fresh 2 in
  (* source task 0 replica 0 on P0, finished at 4, ships 10 units, delay 1 *)
  let b =
    Oracle_booking.book_replica net ~proc:1 ~exec:2.
      ~inputs:[ (0, [ src ~task:0 ~replica:0 ~proc:0 ~finish:4. ~volume:10. ]) ]
  in
  (match b.Netstate.b_messages with
  | [ m ] ->
      Helpers.check_float "leg starts at source finish" 4. m.Netstate.m_leg_start;
      Helpers.check_float "leg finish" 14. m.Netstate.m_leg_finish;
      Helpers.check_float "arrival = leg finish (empty ports)" 14.
        m.Netstate.m_arrival;
      Helpers.check_float "duration" 10. m.Netstate.m_duration
  | _ -> Alcotest.fail "expected one message");
  Helpers.check_float "exec starts at arrival" 14. b.Netstate.b_start;
  Helpers.check_float "send port consumed" 14. (Netstate.send_free net 0);
  Helpers.check_float "recv port consumed" 14. (Netstate.recv_free net 1);
  Helpers.check_float "link consumed" 14. (Netstate.link_ready net ~src:0 ~dst:1)

let test_send_serialization () =
  let net = fresh 3 in
  (* one replica on P1 receiving from P0, then another on P2 also from P0:
     the second leg must wait for P0's send port (equation (2)) *)
  let source = src ~task:0 ~replica:0 ~proc:0 ~finish:0. ~volume:10. in
  let _ = Oracle_booking.book_replica net ~proc:1 ~exec:1. ~inputs:[ (0, [ source ]) ] in
  let b2 = Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ source ]) ] in
  match b2.Netstate.b_messages with
  | [ m ] ->
      Helpers.check_float "second send serialized" 10. m.Netstate.m_leg_start;
      Helpers.check_float "second arrival" 20. m.Netstate.m_arrival
  | _ -> Alcotest.fail "expected one message"

let test_receive_serialization () =
  let net = fresh 3 in
  (* two predecessors on P0 and P1 send to P2; both ready at 0; volumes 10
     and 5.  Legs run in parallel on distinct links, but the receive port
     of P2 serializes the arrivals in non-decreasing leg-finish order. *)
  let a = src ~task:0 ~replica:0 ~proc:0 ~finish:0. ~volume:10. in
  let b = src ~task:1 ~replica:0 ~proc:1 ~finish:0. ~volume:5. in
  let booked =
    Oracle_booking.book_replica net ~proc:2 ~exec:7. ~inputs:[ (0, [ a ]); (1, [ b ]) ]
  in
  (match booked.Netstate.b_messages with
  | [ m1; m2 ] ->
      (* arrival order: the volume-5 message lands first *)
      Helpers.check_float "first arrival" 5. m1.Netstate.m_arrival;
      Helpers.check_float "second arrival serialized" 15. m2.Netstate.m_arrival;
      Helpers.check_float "legs overlap on distinct links" 0.
        m2.Netstate.m_leg_start
  | _ -> Alcotest.fail "expected two messages");
  (* both predecessors needed: start at the later arrival *)
  Helpers.check_float "exec start" 15. booked.Netstate.b_start;
  Helpers.check_float "exec finish" 22. booked.Netstate.b_finish;
  Helpers.check_float "recv free" 15. (Netstate.recv_free net 2)

let test_first_complete_input_set () =
  let net = fresh 3 in
  (* the same task provides two replicas; only the earliest is needed *)
  let r0 = src ~task:0 ~replica:0 ~proc:0 ~finish:0. ~volume:10. in
  let r1 = src ~task:0 ~replica:1 ~proc:1 ~finish:0. ~volume:5. in
  let booked =
    Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ r0; r1 ]) ]
  in
  Helpers.check_int "both replicas ship" 2 (List.length booked.Netstate.b_messages);
  (* earliest arrival is the volume-5 replica at time 5 *)
  Helpers.check_float "starts on first complete set" 5. booked.Netstate.b_start

let test_colocation_suppression () =
  let net = fresh 3 in
  let local = src ~task:0 ~replica:0 ~proc:2 ~finish:6. ~volume:10. in
  let remote = src ~task:0 ~replica:1 ~proc:0 ~finish:0. ~volume:10. in
  let booked =
    Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ remote; local ]) ]
  in
  Helpers.check_int "remote copies suppressed" 0
    (List.length booked.Netstate.b_messages);
  Helpers.check_bool "local supply recorded" true
    (booked.Netstate.b_local = [ (0, 0, 6.) ]);
  Helpers.check_float "starts at local finish" 6. booked.Netstate.b_start;
  Helpers.check_float "send port of P0 untouched" 0. (Netstate.send_free net 0)

let test_colocation_not_exclusive () =
  let net = fresh 3 in
  let local = src ~task:0 ~replica:0 ~proc:2 ~finish:6. ~volume:10. in
  let remote = src ~task:0 ~replica:1 ~proc:0 ~finish:0. ~volume:10. in
  let booked =
    Oracle_booking.book_replica ~colocate_exclusive:false net ~proc:2 ~exec:1.
      ~inputs:[ (0, [ remote; local ]) ]
  in
  Helpers.check_int "remote copy still shipped" 1
    (List.length booked.Netstate.b_messages);
  Helpers.check_bool "local supply also recorded" true
    (booked.Netstate.b_local = [ (0, 0, 6.) ]);
  (* data available from the local copy at 6 (remote arrives at 10) *)
  Helpers.check_float "starts at earliest supply" 6. booked.Netstate.b_start

let test_macro_dataflow_no_contention () =
  let net = fresh ~model:Netstate.Macro_dataflow 3 in
  let a = src ~task:0 ~replica:0 ~proc:0 ~finish:0. ~volume:10. in
  let b = src ~task:1 ~replica:0 ~proc:1 ~finish:0. ~volume:5. in
  let booked =
    Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ a ]); (1, [ b ]) ]
  in
  List.iter
    (fun m ->
      Helpers.check_float "arrival = leg finish under macro-dataflow"
        m.Netstate.m_leg_finish m.Netstate.m_arrival)
    booked.Netstate.b_messages;
  Helpers.check_float "start at max arrival" 10. booked.Netstate.b_start;
  (* ports are never consumed *)
  Helpers.check_float "send free" 0. (Netstate.send_free net 0);
  Helpers.check_float "recv free" 0. (Netstate.recv_free net 2);
  (* same source twice: no serialization under macro-dataflow *)
  let _ = Oracle_booking.book_replica net ~proc:1 ~exec:1. ~inputs:[ (0, [ a ]) ] in
  let again = Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ a ]) ] in
  (match again.Netstate.b_messages with
  | [ m ] -> Helpers.check_float "no send serialization" 0. m.Netstate.m_leg_start
  | _ -> Alcotest.fail "expected one message")

let test_empty_sources_rejected () =
  let net = fresh 2 in
  Alcotest.check_raises "empty source list"
    (Invalid_argument "Netstate.book_replica: predecessor 0 has no source")
    (fun () ->
      ignore (Oracle_booking.book_replica net ~proc:1 ~exec:1. ~inputs:[ (0, []) ]))

let test_heterogeneous_delays () =
  let delays = [| [| 0.; 2. |]; [| 0.5; 0. |] |] in
  let net = Netstate.create (Platform.create ~delays) in
  let b =
    Oracle_booking.book_replica net ~proc:1 ~exec:1.
      ~inputs:[ (0, [ src ~task:0 ~replica:0 ~proc:0 ~finish:0. ~volume:10. ]) ]
  in
  (* volume 10 x delay 2 = 20 *)
  Helpers.check_float "directional delay applied" 20. b.Netstate.b_start

let suite =
  [
    Alcotest.test_case "exec-only booking" `Quick test_exec_only;
    Alcotest.test_case "single message timing" `Quick test_single_message;
    Alcotest.test_case "send-port serialization (eq 2)" `Quick
      test_send_serialization;
    Alcotest.test_case "receive-port serialization (eq 3/6)" `Quick
      test_receive_serialization;
    Alcotest.test_case "first complete input set" `Quick
      test_first_complete_input_set;
    Alcotest.test_case "co-location suppression" `Quick
      test_colocation_suppression;
    Alcotest.test_case "co-location without suppression" `Quick
      test_colocation_not_exclusive;
    Alcotest.test_case "macro-dataflow has no contention" `Quick
      test_macro_dataflow_no_contention;
    Alcotest.test_case "empty sources rejected" `Quick
      test_empty_sources_rejected;
    Alcotest.test_case "heterogeneous delays" `Quick test_heterogeneous_delays;
  ]
