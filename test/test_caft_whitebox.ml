(* White-box tests of the CAFT engine: the support-set invariant that
   underlies the corrected Proposition 5.2, checked directly rather than
   through crash replay. *)

let engine_for ?(epsilon = 2) ?(seed = 1) () =
  let _, costs = Helpers.random_instance ~seed ~m:7 ~tasks:25 () in
  let engine = Caft_engine.create ~epsilon costs in
  let prio = Prio.create ~rng:(Rng.create 5) costs in
  let rec loop () =
    match Prio.pop prio with
    | None -> ()
    | Some task ->
        Caft_engine.schedule_task engine task;
        Prio.mark_scheduled prio task
          ~completion:(Caft_engine.completion_lower engine task);
        loop ()
  in
  loop ();
  engine

let test_supports_pairwise_disjoint () =
  List.iter
    (fun seed ->
      let engine = engine_for ~seed () in
      let dag = Caft_engine.dag engine in
      let epsilon = Caft_engine.epsilon engine in
      for task = 0 to Dag.task_count dag - 1 do
        for i = 0 to epsilon do
          for j = i + 1 to epsilon do
            let si = Caft_engine.support engine task i in
            let sj = Caft_engine.support engine task j in
            if not (Bitset.disjoint si sj) then
              Alcotest.failf
                "task %d: supports of replicas %d and %d overlap (%s vs %s)"
                task i j
                (Format.asprintf "%a" Bitset.pp si)
                (Format.asprintf "%a" Bitset.pp sj)
          done
        done
      done)
    [ 1; 2; 3; 4 ]

let test_support_contains_own_proc () =
  let engine = engine_for () in
  let dag = Caft_engine.dag engine in
  let sched = Caft_engine.to_schedule ~algorithm:"wb" engine in
  for task = 0 to Dag.task_count dag - 1 do
    Array.iter
      (fun (r : Schedule.replica) ->
        let s = Caft_engine.support engine task r.Schedule.r_index in
        Helpers.check_bool "support contains own processor" true
          (Bitset.mem s r.Schedule.r_proc))
      (Schedule.replicas sched task)
  done

let test_support_covers_one_to_one_sources () =
  (* a replica with a single-source (one-to-one) supply must carry the
     source's support inside its own *)
  let engine = engine_for ~seed:6 () in
  let dag = Caft_engine.dag engine in
  let sched = Caft_engine.to_schedule ~algorithm:"wb" engine in
  List.iter
    (fun (r : Schedule.replica) ->
      let s = Caft_engine.support engine r.Schedule.r_task r.Schedule.r_index in
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
          let all_copies = Array.length (Schedule.replicas sched pred) in
          match supplies with
          | [ one ] when List.length supplies < all_copies ->
              (* one-to-one: the source's support must be included *)
              let src_idx =
                match one with
                | Schedule.Local { l_pred_replica; _ } -> l_pred_replica
                | Schedule.Message m -> m.Netstate.m_source.Netstate.s_replica
              in
              let src_support = Caft_engine.support engine pred src_idx in
              Helpers.check_bool "source support included" true
                (Bitset.subset src_support s)
          | _ -> ())
        (Dag.pred_tasks dag r.Schedule.r_task))
    (Schedule.all_replicas sched)

let test_support_unplaced_rejected () =
  let _, costs = Helpers.random_instance ~seed:7 () in
  let engine = Caft_engine.create ~epsilon:1 costs in
  Alcotest.check_raises "unplaced replica"
    (Invalid_argument "Caft_engine: support of unplaced replica") (fun () ->
      ignore (Caft_engine.support engine 0 0))

let test_estimate_finish_is_optimistic () =
  (* the estimate for the next task never exceeds the finish it actually
     achieves when scheduled immediately after *)
  let _, costs = Helpers.random_instance ~seed:8 ~m:6 ~tasks:15 () in
  let engine = Caft_engine.create ~epsilon:1 costs in
  let prio = Prio.create ~rng:(Rng.create 5) costs in
  let rec loop () =
    match Prio.pop prio with
    | None -> ()
    | Some task ->
        let estimate = Caft_engine.estimate_finish engine task in
        Caft_engine.schedule_task engine task;
        let achieved = Caft_engine.completion_lower engine task in
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "estimate matches first replica for task %d" task)
          estimate achieved;
        Prio.mark_scheduled prio task ~completion:achieved;
        loop ()
  in
  loop ()

(* -- one-port serialization bound ---------------------------------------- *)

(* Two legs of 2^-53 on a receive port free at 1.0: each arrival
   [w +. max prev leg_start] rounds back to 1.0, so the data is ready at
   1.0, but [1.0 +. (2^-53 +. 2^-53)] is one ulp above.  The pruning term
   must stay at or below what [Netstate.probe] books. *)
let test_ser_term_sub_ulp () =
  let tiny = ldexp 1. (-53) in
  let net =
    Netstate.create ~model:Netstate.One_port (Platform.uniform ~m:4 ~delay:1.)
  in
  let source task proc volume =
    {
      Netstate.s_task = task;
      s_replica = 0;
      s_proc = proc;
      s_finish = 0.;
      s_volume = volume;
    }
  in
  (* one unit message into processor 3 leaves its receive port free at 1 *)
  ignore
    (Oracle_booking.book_replica net ~proc:3 ~exec:0.
       ~inputs:[ (0, [ source 0 0 1. ]) ]);
  let recv_free = Netstate.recv_free net 3 in
  Helpers.check_bool "receive port free at 1" true (recv_free = 1.);
  let srcs = Netstate.create_sources () in
  Oracle_booking.load_inputs srcs
    [ (1, [ source 1 1 tiny ]); (2, [ source 2 2 tiny ]) ];
  let start, _ =
    Netstate.probe net srcs ~colocate_exclusive:true ~proc:3 ~exec:0.
  in
  Helpers.check_bool "both legs arrive at 1" true (start = 1.);
  let sum = tiny +. tiny in
  Helpers.check_bool "plain sum overshoots the chain" true
    (recv_free +. sum > start);
  Helpers.check_bool "ser_term <= probed arrival" true
    (Caft_engine.ser_term ~recv_free ~legs:2 sum <= start)

(* Random ports and legs in the ranges of the pruning workloads: the term
   stays at or below the chain in booking order and in reverse order. *)
let test_ser_term_random () =
  let rng = Rng.create 53 in
  let chain rf ws =
    List.fold_left (fun prev w -> w +. Float.max prev 0.) rf ws
  in
  let overshoots = ref 0 in
  for _ = 1 to 200_000 do
    let rf = Rng.float rng 1000. in
    let ws = List.init (2 + Rng.int rng 5) (fun _ -> Rng.float rng 50.) in
    let sum = List.fold_left ( +. ) 0. ws in
    let tight = Float.min (chain rf ws) (chain rf (List.rev ws)) in
    if rf +. sum > tight then incr overshoots;
    let bound =
      Caft_engine.ser_term ~recv_free:rf ~legs:(List.length ws) sum
    in
    if bound > tight then
      Alcotest.failf "ser_term %h > chain %h (recv_free %h)" bound tight rf
  done;
  (* the draws do exercise the rounding gap the margin covers *)
  Helpers.check_bool "plain sum overshoots some chains" true (!overshoots > 0)

let suite =
  [
    Alcotest.test_case "supports pairwise disjoint" `Quick
      test_supports_pairwise_disjoint;
    Alcotest.test_case "support contains own processor" `Quick
      test_support_contains_own_proc;
    Alcotest.test_case "support covers one-to-one sources" `Quick
      test_support_covers_one_to_one_sources;
    Alcotest.test_case "support of unplaced replica rejected" `Quick
      test_support_unplaced_rejected;
    Alcotest.test_case "estimate_finish is exact for the next task" `Quick
      test_estimate_finish_is_optimistic;
    Alcotest.test_case "serialization term below sub-ulp chain" `Quick
      test_ser_term_sub_ulp;
    Alcotest.test_case "serialization term below random chains" `Quick
      test_ser_term_random;
  ]
