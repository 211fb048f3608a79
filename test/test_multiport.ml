(* Tests for the bounded multi-port communication model. *)

let src ~task ~replica ~proc ~finish ~volume =
  {
    Netstate.s_task = task;
    s_replica = replica;
    s_proc = proc;
    s_finish = finish;
    s_volume = volume;
  }

let test_multiport_1_equals_one_port () =
  let _, costs = Helpers.random_instance ~seed:91 () in
  let a = Caft.run ~model:Netstate.One_port ~seed:4 ~epsilon:1 costs in
  let b = Caft.run ~model:(Netstate.Multiport 1) ~seed:4 ~epsilon:1 costs in
  Helpers.check_float "same latency" (Schedule.latency_zero_crash a)
    (Schedule.latency_zero_crash b);
  Helpers.check_int "same messages" (Schedule.message_count a)
    (Schedule.message_count b)

let test_two_slots_receive_in_parallel () =
  (* two equal messages into one processor: serialized under one-port,
     parallel with two receive slots *)
  let run_model model =
    let net = Netstate.create ~model (Helpers.uniform_platform 3) in
    let a = src ~task:0 ~replica:0 ~proc:0 ~finish:0. ~volume:10. in
    let b = src ~task:1 ~replica:0 ~proc:1 ~finish:0. ~volume:10. in
    Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ a ]); (1, [ b ]) ]
  in
  let one = run_model Netstate.One_port in
  let two = run_model (Netstate.Multiport 2) in
  Helpers.check_float "one-port serializes" 20. one.Netstate.b_start;
  Helpers.check_float "two slots overlap" 10. two.Netstate.b_start

let test_two_slots_send_in_parallel () =
  (* one source feeding two consumers: the second leg waits under
     one-port, not under multiport-2 *)
  let run_model model =
    let net = Netstate.create ~model (Helpers.uniform_platform 3) in
    let s = src ~task:0 ~replica:0 ~proc:0 ~finish:0. ~volume:10. in
    let _ = Oracle_booking.book_replica net ~proc:1 ~exec:1. ~inputs:[ (0, [ s ]) ] in
    let b2 = Oracle_booking.book_replica net ~proc:2 ~exec:1. ~inputs:[ (0, [ s ]) ] in
    b2.Netstate.b_start
  in
  Helpers.check_float "one-port send serialized" 20. (run_model Netstate.One_port);
  Helpers.check_float "multiport-2 sends overlap" 10.
    (run_model (Netstate.Multiport 2))

let test_schedulers_valid_and_tolerant () =
  List.iter
    (fun k ->
      let model = Netstate.Multiport k in
      let _, costs = Helpers.random_instance ~seed:(92 + k) () in
      List.iter
        (fun (name, sched) ->
          (match Validate.run sched with
          | [] -> ()
          | vs ->
              Alcotest.failf "%s under multiport-%d invalid:\n%s" name k
                (String.concat "\n"
                   (List.map
                      (fun v -> Format.asprintf "%a" Validate.pp_violation v)
                      vs)));
          Helpers.check_bool
            (Printf.sprintf "%s multiport-%d resists" name k)
            true
            (Fault_check.check ~epsilon:2 sched).Fault_check.resists)
        [
          ("CAFT", Caft.run ~model ~epsilon:2 costs);
          ("FTSA", Ftsa.run ~model ~epsilon:2 costs);
        ])
    [ 2; 4 ]

let test_latency_monotone_in_ports () =
  (* More ports = less endpoint contention, so mean latency should not
     grow — up to heuristic placement anomalies (each model produces a
     *different* schedule), hence the 10% slack. *)
  let mean_for model =
    let acc = ref 0. in
    for seed = 1 to 6 do
      let _, costs = Helpers.random_instance ~seed ~granularity:0.5 () in
      acc := !acc +. Schedule.latency_zero_crash (Ftsa.run ~model ~epsilon:2 costs)
    done;
    !acc
  in
  let one = mean_for Netstate.One_port in
  let two = mean_for (Netstate.Multiport 2) in
  let four = mean_for (Netstate.Multiport 4) in
  let macro = mean_for Netstate.Macro_dataflow in
  Helpers.check_bool
    (Printf.sprintf "1 port %.0f >= 2 ports %.0f >= 4 ports %.0f >= macro %.0f"
       one two four macro)
    true
    (1.1 *. one >= two && 1.1 *. two >= four && 1.1 *. four >= macro)

let test_replay_multiport () =
  (* slot assignments are not recorded, so the work-conserving replay may
     deviate slightly from the plan; it must complete, stay finite and be
     in the plan's ballpark *)
  let _, costs = Helpers.random_instance ~seed:95 () in
  let sched = Caft.run ~model:(Netstate.Multiport 2) ~epsilon:1 costs in
  let out = Replay.fault_free sched in
  Helpers.check_bool "completes" true out.Replay.completed;
  let static = Schedule.latency_zero_crash sched in
  Helpers.check_bool
    (Printf.sprintf "replay near static (%.1f vs %.1f)" out.Replay.latency static)
    true
    (out.Replay.latency > 0.7 *. static && out.Replay.latency < 1.3 *. static)

let test_io_roundtrip_multiport () =
  let _, costs = Helpers.random_instance ~seed:96 () in
  let sched = Caft.run ~model:(Netstate.Multiport 3) ~epsilon:1 costs in
  let back = Schedule_io.of_string (Schedule_io.to_string sched) in
  Helpers.check_bool "model preserved" true
    (Schedule.model back = Netstate.Multiport 3);
  Helpers.check_float "latency preserved"
    (Schedule.latency_zero_crash sched)
    (Schedule.latency_zero_crash back)

let test_validator_depth_check () =
  (* three overlapping reception windows: fine with capacity 3, a
     violation with capacity 2 *)
  let dag =
    Dag.make ~n:4 ~edges:[ (0, 3, 10.); (1, 3, 10.); (2, 3, 10.) ] ()
  in
  let platform = Helpers.uniform_platform 4 in
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
  let msg stask sproc =
    Schedule.Message
      {
        Netstate.m_source =
          {
            Netstate.s_task = stask;
            s_replica = 0;
            s_proc = sproc;
            s_finish = 5.;
            s_volume = 10.;
          };
        m_dst_proc = 3;
        m_duration = 10.;
        m_leg_start = 5.;
        m_leg_finish = 15.;
        m_arrival = 15.;
      }
  in
  let replicas =
    [
      mk ~task:0 ~proc:0 ~start:0. ~finish:5. ~inputs:[];
      mk ~task:1 ~proc:1 ~start:0. ~finish:5. ~inputs:[];
      mk ~task:2 ~proc:2 ~start:0. ~finish:5. ~inputs:[];
      mk ~task:3 ~proc:3 ~start:15. ~finish:20.
        ~inputs:[ msg 0 0; msg 1 1; msg 2 2 ];
    ]
  in
  let build model =
    Schedule.create ~algorithm:"hand" ~epsilon:0 ~model ~costs replicas
  in
  let has_recv_violation model =
    List.exists
      (fun v -> v.Validate.check = "one-port-recv")
      (Validate.run (build model))
  in
  Helpers.check_bool "capacity 3 accepts" false
    (has_recv_violation (Netstate.Multiport 3));
  Helpers.check_bool "capacity 2 rejects" true
    (has_recv_violation (Netstate.Multiport 2));
  Helpers.check_bool "one-port rejects" true
    (has_recv_violation Netstate.One_port)

let test_rejects_bad_k () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Netstate: Multiport needs k >= 1") (fun () ->
      ignore
        (Netstate.create ~model:(Netstate.Multiport 0)
           (Helpers.uniform_platform 2)))

let suite =
  [
    Alcotest.test_case "multiport-1 = one-port" `Quick
      test_multiport_1_equals_one_port;
    Alcotest.test_case "two receive slots overlap" `Quick
      test_two_slots_receive_in_parallel;
    Alcotest.test_case "two send slots overlap" `Quick
      test_two_slots_send_in_parallel;
    Alcotest.test_case "schedulers valid and tolerant" `Quick
      test_schedulers_valid_and_tolerant;
    Alcotest.test_case "latency monotone in port count" `Quick
      test_latency_monotone_in_ports;
    Alcotest.test_case "replay under multiport" `Quick test_replay_multiport;
    Alcotest.test_case "serialization roundtrip" `Quick
      test_io_roundtrip_multiport;
    Alcotest.test_case "validator depth check" `Quick
      test_validator_depth_check;
    Alcotest.test_case "rejects bad port count" `Quick test_rejects_bad_k;
  ]
