(* Tests for the extension features: batched CAFT (Section 7) and the
   one-to-one ablation. *)

let test_batch_window_one_equals_caft () =
  let _, costs = Helpers.random_instance ~seed:21 () in
  let plain = Caft.run ~seed:3 ~epsilon:1 costs in
  let batch1 = Caft_batch.run ~seed:3 ~window:1 ~epsilon:1 costs in
  Helpers.check_float "same latency" (Schedule.latency_zero_crash plain)
    (Schedule.latency_zero_crash batch1);
  Helpers.check_int "same messages" (Schedule.message_count plain)
    (Schedule.message_count batch1);
  List.iter2
    (fun (a : Schedule.replica) (b : Schedule.replica) ->
      Helpers.check_int "same placement" a.Schedule.r_proc b.Schedule.r_proc)
    (Schedule.all_replicas plain)
    (Schedule.all_replicas batch1)

let test_batch_valid_and_tolerant () =
  List.iter
    (fun window ->
      let _, costs = Helpers.random_instance ~seed:(22 + window) () in
      let sched = Caft_batch.run ~window ~epsilon:2 costs in
      (match Validate.run sched with
      | [] -> ()
      | vs ->
          Alcotest.failf "window %d: invalid:\n%s" window
            (String.concat "\n"
               (List.map (fun v -> Format.asprintf "%a" Validate.pp_violation v) vs)));
      Helpers.check_bool
        (Printf.sprintf "window %d resists" window)
        true
        (Fault_check.check ~epsilon:2 sched).Fault_check.resists)
    [ 2; 5; 10 ]

let test_batch_rejects_bad_window () =
  let _, costs = Helpers.random_instance ~seed:25 () in
  Alcotest.check_raises "window 0" (Invalid_argument "Caft_batch.run: window < 1")
    (fun () -> ignore (Caft_batch.run ~window:0 ~epsilon:1 costs))

let test_batch_name () =
  let _, costs = Helpers.random_instance ~seed:26 () in
  let sched = Caft_batch.run ~window:7 ~epsilon:1 costs in
  Helpers.check_bool "name carries window" true
    (Schedule.algorithm sched = "CAFT-batch7")

let test_one_to_one_ablation () =
  let _, costs = Helpers.random_instance ~seed:28 () in
  let full = Caft.run ~one_to_one:false ~epsilon:2 costs in
  Helpers.check_bool "name" true (Schedule.algorithm full = "CAFT-full");
  Helpers.check_bool "valid" true (Validate.is_valid full);
  Helpers.check_bool "resists" true
    (Fault_check.check ~epsilon:2 full).Fault_check.resists;
  (* disabling the mechanism costs messages *)
  let normal = Caft.run ~epsilon:2 costs in
  Helpers.check_bool "one-to-one saves messages" true
    (Schedule.message_count normal < Schedule.message_count full);
  (* with full replication, every replica's inputs carry either a local
     supply or all placed copies of each predecessor *)
  let dag = Schedule.dag full in
  List.iter
    (fun (r : Schedule.replica) ->
      List.iter
        (fun pred ->
          let supplies =
            List.filter
              (function
                | Schedule.Local { l_pred; _ } -> l_pred = pred
                | Schedule.Message m ->
                    m.Netstate.m_source.Netstate.s_task = pred)
              r.Schedule.r_inputs
          in
          Helpers.check_bool "full replication supply count" true
            (List.length supplies >= 1))
        (Dag.pred_tasks dag r.Schedule.r_task))
    (Schedule.all_replicas full)

let suite =
  [
    Alcotest.test_case "one-to-one ablation (CAFT-full)" `Quick
      test_one_to_one_ablation;
    Alcotest.test_case "batch window 1 = CAFT" `Quick
      test_batch_window_one_equals_caft;
    Alcotest.test_case "batch valid and tolerant" `Quick
      test_batch_valid_and_tolerant;
    Alcotest.test_case "batch rejects bad window" `Quick
      test_batch_rejects_bad_window;
    Alcotest.test_case "batch algorithm name" `Quick test_batch_name;
  ]

