(* PR 9 coverage: the streaming schedule writer, the new workflow
   families, and the large-n safety rails.

   - golden fingerprints pin the CAFT schedules of the staged fan-out /
     fan-in and pipeline families at small n, the same MD5 harness as
     test_trial_undo: any engine change that moves a byte fails here;
   - the stream writer is differential-tested against the in-memory
     path: the streamed file parses back to a schedule whose canonical
     serialization equals [Schedule_io.to_string] of [Caft.run]'s result
     (replica lines are emitted in placement order; parsing
     renormalizes);
   - a 10^5-task smoke run asserts the streaming entry point completes
     a real large instance under a generous wall budget;
   - the iterative topological sort survives a chain far deeper than the
     OCaml stack allows for non-tail recursion;
   - [Dag.transitive_closure] fails fast past its task-count cap. *)

let fingerprint sched =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "R %d %d %d %.17g %.17g\n" r.Schedule.r_task
           r.Schedule.r_index r.Schedule.r_proc r.Schedule.r_start
           r.Schedule.r_finish);
      List.iter
        (function
          | Schedule.Local { l_pred; l_pred_replica; l_finish } ->
              Buffer.add_string b
                (Printf.sprintf "L %d %d %.17g\n" l_pred l_pred_replica
                   l_finish)
          | Schedule.Message m ->
              Buffer.add_string b
                (Printf.sprintf "M %d %d %d %d %.17g %.17g %.17g %.17g\n"
                   m.Netstate.m_source.Netstate.s_task
                   m.Netstate.m_source.Netstate.s_replica
                   m.Netstate.m_source.Netstate.s_proc m.Netstate.m_dst_proc
                   m.Netstate.m_duration m.Netstate.m_leg_start
                   m.Netstate.m_leg_finish m.Netstate.m_arrival))
        r.Schedule.r_inputs)
    (Schedule.all_replicas sched);
  Digest.to_hex (Digest.string (Buffer.contents b))

let family_costs ~seed ~m dag =
  let rng = Rng.create seed in
  let params = Platform_gen.default ~m () in
  Platform_gen.instance rng ~granularity:1.0 params dag

(* Digests recorded when the families were introduced (PR 9): the
   scaling optimizations must keep these schedules byte-identical. *)
let golden_family_cases =
  [
    ( "caft/staged4x5/m6/eps1",
      "c91943d6d580ad59b6f1684a25e72109",
      fun () ->
        Caft.run ~seed:101 ~epsilon:1
          (family_costs ~seed:1 ~m:6
             (Families.staged_fanout ~stages:4 ~width:5 ())) );
    ( "caft/pipelines4x5/m6/eps1",
      "3bd8f930dfd8750e491db80a7c1e3bee",
      fun () ->
        Caft.run ~seed:101 ~epsilon:1
          (family_costs ~seed:2 ~m:6
             (Families.parallel_chains ~lanes:4 ~depth:5 ())) );
    ( "caft/staged3x4/m8/eps2",
      "0acb63ca47988744f0e96f805ff8f4a8",
      fun () ->
        Caft.run ~seed:202 ~epsilon:2
          (family_costs ~seed:3 ~m:8
             (Families.staged_fanout ~stages:3 ~width:4 ())) );
    (* a fan-in of width 12 over 32 processors, recorded before the
       per-placement leg table: many sources per candidate row *)
    ( "caft/staged3x12/m32/eps2",
      "7360f03ca37aea9a0b906d51b255516e",
      fun () ->
        Caft.run ~seed:303 ~epsilon:2
          (family_costs ~seed:4 ~m:32
             (Families.staged_fanout ~stages:3 ~width:12 ())) );
  ]

let test_family_fingerprints () =
  List.iter
    (fun (name, expected, run) ->
      Alcotest.(check string) name expected (fingerprint (run ())))
    golden_family_cases

(* -- streaming writer --------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "ftsched_stream" ".fts" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let check_stream_matches name ~epsilon costs =
  with_temp_file @@ fun path ->
  let sched = Caft.run ~epsilon costs in
  Caft.run_stream ~epsilon ~path costs;
  let back = Schedule_io.of_file path in
  Alcotest.(check string)
    (name ^ ": canonical bytes")
    (Schedule_io.to_string sched)
    (Schedule_io.to_string back);
  Alcotest.(check string)
    (name ^ ": fingerprint")
    (fingerprint sched) (fingerprint back)

let test_stream_differential () =
  check_stream_matches "staged" ~epsilon:1
    (family_costs ~seed:1 ~m:6 (Families.staged_fanout ~stages:4 ~width:5 ()));
  check_stream_matches "pipelines" ~epsilon:2
    (family_costs ~seed:2 ~m:8 (Families.parallel_chains ~lanes:3 ~depth:6 ()));
  let _, costs = Helpers.random_instance ~seed:4 ~m:6 ~tasks:30 () in
  check_stream_matches "random" ~epsilon:1 costs

let test_stream_writer_closed () =
  with_temp_file @@ fun path ->
  let costs =
    family_costs ~seed:1 ~m:4 (Families.staged_fanout ~stages:2 ~width:2 ())
  in
  let w =
    Schedule_io.stream_writer ~algorithm:"CAFT" ~epsilon:0
      ~model:Netstate.One_port ~path costs
  in
  Schedule_io.stream_close w;
  Schedule_io.stream_close w (* idempotent *);
  Alcotest.check_raises "write after close"
    (Invalid_argument "Schedule_io.stream_replica: closed") (fun () ->
      Schedule_io.stream_replica w
        {
          Schedule.r_task = 0;
          r_index = 0;
          r_proc = 0;
          r_start = 0.;
          r_finish = 1.;
          r_inputs = [];
        })

(* -- 10^5-task smoke ---------------------------------------------------- *)

let test_large_stream_smoke () =
  with_temp_file @@ fun path ->
  (* 1 + 8 * (12_500 + 1) = 100_009 tasks *)
  let dag = Families.staged_fanout ~stages:8 ~width:12_500 () in
  let costs = family_costs ~seed:5 ~m:16 dag in
  let t0 = Unix.gettimeofday () in
  Caft.run_stream ~epsilon:1 ~path costs;
  let dt = Unix.gettimeofday () -. t0 in
  (* generous wall budget: the point is "completes at this scale", not a
     benchmark (the bench section tracks throughput) *)
  Alcotest.(check bool)
    (Printf.sprintf "completed in %.1fs < 300s" dt)
    true (dt < 300.);
  let replicas = ref 0 and saw_end = ref false in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.length line >= 8 && String.sub line 0 8 = "replica " then
            incr replicas
          else if line = "end" then saw_end := true
        done
      with End_of_file -> ());
  Helpers.check_int "replica lines" (2 * Dag.task_count dag) !replicas;
  Helpers.check_bool "end marker" true !saw_end

(* -- large-n safety rails ----------------------------------------------- *)

let test_deep_chain_topo () =
  let n = 200_000 in
  let dag = Families.parallel_chains ~lanes:1 ~depth:(n - 2) () in
  Helpers.check_int "tasks" n (Dag.task_count dag);
  (* longest_path_length walks the topo order iteratively too *)
  Helpers.check_int "depth" n (Dag.longest_path_length dag);
  let topo = Dag.topological_order dag in
  Helpers.check_int "topo covers all" n (Array.length topo)

let test_transitive_closure_cap () =
  Helpers.check_int "cap value" 10_000 Dag.transitive_closure_cap;
  let dag = Dag.make ~n:(Dag.transitive_closure_cap + 1) ~edges:[] () in
  match Dag.transitive_closure dag with
  | _ -> Alcotest.fail "expected Invalid_argument past the cap"
  | exception Invalid_argument msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Helpers.check_bool "message names the cap" true (contains msg "10000")

let suite =
  [
    Alcotest.test_case "family golden fingerprints" `Quick
      test_family_fingerprints;
    Alcotest.test_case "stream matches in-memory" `Quick
      test_stream_differential;
    Alcotest.test_case "stream writer close" `Quick test_stream_writer_closed;
    Alcotest.test_case "100k-task streaming smoke" `Slow
      test_large_stream_smoke;
    Alcotest.test_case "deep chain topo sort" `Quick test_deep_chain_topo;
    Alcotest.test_case "transitive closure cap" `Quick
      test_transitive_closure_cap;
  ]
