(* Shared-link contention: booking and replay over a routed platform. *)

(* A 3-processor line: P0 - P1 - P2, unit delay per cable.  Messages from
   P0 to P2 traverse both cables; anything else using a cable of the
   route must serialize with them. *)
let line () =
  Topology.platform (Topology.custom ~m:3 ~links:[ (0, 1, 1.); (1, 2, 1.) ])

let src ~task ~proc ~finish ~volume =
  {
    Netstate.s_task = task;
    s_replica = 0;
    s_proc = proc;
    s_finish = finish;
    s_volume = volume;
  }

let test_route_delay () =
  let platform = line () in
  Helpers.check_float "end-to-end delay" 2. (Platform.delay platform 0 2);
  Helpers.check_float "adjacent delay" 1. (Platform.delay platform 1 2)

let test_shared_link_serialization () =
  let platform = line () in
  let net = Netstate.create platform in
  (* two predecessors send to P2: t0 from P0 (5 units, W = 10 over two
     hops) and t1 from P1 (5 units, W = 5).  They share the cable P1->P2,
     so the second leg waits for the first. *)
  let a = src ~task:0 ~proc:0 ~finish:0. ~volume:5. in
  let b = src ~task:1 ~proc:1 ~finish:0. ~volume:5. in
  let booked =
    Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ a ]); (1, [ b ]) ]
  in
  (match booked.Netstate.b_messages with
  | [ m1; m2 ] ->
      Helpers.check_float "long route leg [0,10]" 0. m1.Netstate.m_leg_start;
      Helpers.check_float "long route finish" 10. m1.Netstate.m_leg_finish;
      Helpers.check_float "shared cable forces wait" 10.
        m2.Netstate.m_leg_start;
      Helpers.check_float "second arrival" 15. m2.Netstate.m_arrival
  | _ -> Alcotest.fail "expected two messages");
  Helpers.check_float "start when both inputs arrive" 15. booked.Netstate.b_start;
  (* on the clique, the same bookings would not interfere on links *)
  let net_clique = Netstate.create (Helpers.uniform_platform 3) in
  let booked_clique =
    Oracle_booking.book_replica net_clique ~proc:2 ~exec:1.
      ~inputs:[ (0, [ a ]); (1, [ b ]) ]
  in
  Helpers.check_bool "clique strictly faster" true
    (booked_clique.Netstate.b_start < booked.Netstate.b_start)

let test_fabric_link_ready () =
  let platform = line () in
  let net = Netstate.create platform in
  let a = src ~task:0 ~proc:0 ~finish:0. ~volume:5. in
  let _ = Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ a ]) ] in
  (* the booked route occupies both cables until 10 *)
  Helpers.check_float "P0->P1 busy" 10. (Netstate.link_ready net ~src:0 ~dst:1);
  Helpers.check_float "P1->P2 busy" 10. (Netstate.link_ready net ~src:1 ~dst:2);
  (* the reverse directions are free *)
  Helpers.check_float "P1->P0 free" 0. (Netstate.link_ready net ~src:1 ~dst:0);
  Helpers.check_float "P2->P1 free" 0. (Netstate.link_ready net ~src:2 ~dst:1)

let test_validator_sees_shared_links () =
  (* Hand-build a schedule whose two messages overlap on a shared cable:
     valid per pairwise-link checks, invalid per the routes. *)
  let platform = line () in
  let dag = Dag.make ~n:3 ~edges:[ (0, 2, 5.); (1, 2, 5.) ] () in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let mk ~task ~proc ~start ~finish ~inputs =
    {
      Schedule.r_task = task;
      r_index = 0;
      r_proc = proc;
      r_start = start;
      r_finish = finish;
      r_inputs = inputs;
    }
  in
  let msg ~stask ~sproc ~w ~leg_start ~arrival =
    Schedule.Message
      {
        Netstate.m_source =
          {
            Netstate.s_task = stask;
            s_replica = 0;
            s_proc = sproc;
            s_finish = 5.;
            s_volume = 5.;
          };
        m_dst_proc = 2;
        m_duration = w;
        m_leg_start = leg_start;
        m_leg_finish = leg_start +. w;
        m_arrival = arrival;
      }
  in
  let sched =
    Schedule.create ~algorithm:"hand" ~epsilon:0 ~model:Netstate.One_port ~costs
      [
        mk ~task:0 ~proc:0 ~start:0. ~finish:5. ~inputs:[];
        mk ~task:1 ~proc:1 ~start:0. ~finish:5. ~inputs:[];
        mk ~task:2 ~proc:2 ~start:30. ~finish:35.
          ~inputs:
            [
              (* both legs on the wire during [5, 12] -- they share the
                 P1->P2 cable *)
              msg ~stask:0 ~sproc:0 ~w:10. ~leg_start:5. ~arrival:15.;
              msg ~stask:1 ~sproc:1 ~w:5. ~leg_start:7. ~arrival:20.;
            ];
      ]
  in
  (* pairwise (clique) validation passes the link check *)
  let clique_violations =
    List.filter
      (fun v -> v.Validate.check = "one-port-link")
      (Validate.run (Helpers.reroute ~links:(Helpers.uniform_platform 3) sched))
  in
  Helpers.check_int "clique link check blind to sharing" 0
    (List.length clique_violations);
  (* route-aware validation catches the shared cable *)
  let fabric_violations =
    List.filter
      (fun v -> v.Validate.check = "one-port-link")
      (Validate.run sched)
  in
  Helpers.check_bool "fabric link check catches sharing" true
    (fabric_violations <> [])

let test_replay_respects_fabric () =
  (* schedule over the line, then replay it there and on the clique with
     the same delays: the routed replay must match the static times, the
     clique replay may finish earlier (it ignores the shared cable) *)
  let platform = line () in
  let rng = Rng.create 4 in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 15; tasks_max = 15 }
  in
  let costs = Costs.create dag platform (fun t _ -> 10. +. float_of_int t) in
  let sched = Caft.run ~epsilon:1 costs in
  let out_fabric = Replay.fault_free sched in
  Helpers.check_bool "fabric replay completes" true out_fabric.Replay.completed;
  Helpers.check_float "fabric replay equals static"
    (Schedule.latency_zero_crash sched)
    out_fabric.Replay.latency;
  let out_clique =
    Replay.fault_free
      (Helpers.reroute ~links:(Helpers.uniform_platform 3) sched)
  in
  Helpers.check_bool "clique replay no slower" true
    (out_clique.Replay.latency <= out_fabric.Replay.latency +. 1e-6)

let suite =
  [
    Alcotest.test_case "route delays" `Quick test_route_delay;
    Alcotest.test_case "shared-link serialization" `Quick
      test_shared_link_serialization;
    Alcotest.test_case "fabric link_ready" `Quick test_fabric_link_ready;
    Alcotest.test_case "validator sees shared links" `Quick
      test_validator_sees_shared_links;
    Alcotest.test_case "replay respects the fabric" `Quick
      test_replay_respects_fabric;
  ]
