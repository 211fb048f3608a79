(* Obs.Prof: phase nesting, per-domain attribution, GC deltas, JSON
   round-trip, and the Parallel.map worker telemetry hook. *)

let with_prof f =
  Obs.Prof.reset ();
  Obs.Prof.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Prof.set_enabled false) f

let find_phase r name domain =
  List.find_opt
    (fun p -> p.Obs.Prof.ph_name = name && p.Obs.Prof.ph_domain = domain)
    r.Obs.Prof.r_phases

let self_domain () = (Domain.self () :> int)

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (Sys.opaque_identity (sin 1.0))
  done

(* -- nesting ----------------------------------------------------------- *)

let test_nesting () =
  with_prof @@ fun () ->
  Obs.Prof.phase "outer" (fun () ->
      spin 0.01;
      Obs.Prof.phase "inner" (fun () -> spin 0.02));
  let r = Obs.Prof.report () in
  let d = self_domain () in
  let outer = Option.get (find_phase r "outer" d) in
  let inner = Option.get (find_phase r "inner" d) in
  Alcotest.(check int) "outer once" 1 outer.Obs.Prof.ph_count;
  Alcotest.(check int) "inner once" 1 inner.Obs.Prof.ph_count;
  (* inclusive wall of outer covers inner *)
  Alcotest.(check bool) "outer wall >= inner wall" true
    (outer.Obs.Prof.ph_wall_s >= inner.Obs.Prof.ph_wall_s);
  (* self excludes the nested phase: outer self ~0.01 despite 0.03 wall *)
  Alcotest.(check bool) "outer self excludes inner" true
    (outer.Obs.Prof.ph_self_s
    <= outer.Obs.Prof.ph_wall_s -. inner.Obs.Prof.ph_wall_s +. 0.005);
  Alcotest.(check bool) "inner self = inner wall" true
    (Float.abs (inner.Obs.Prof.ph_self_s -. inner.Obs.Prof.ph_wall_s) < 1e-9)

let test_disabled_is_transparent () =
  Obs.Prof.reset ();
  let x = Obs.Prof.phase "ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 x;
  let r = Obs.Prof.report () in
  Alcotest.(check int) "nothing recorded" 0 (List.length r.Obs.Prof.r_phases)

let test_exception_closes_frame () =
  with_prof @@ fun () ->
  (try Obs.Prof.phase "boom" (fun () -> failwith "x") with Failure _ -> ());
  Obs.Prof.phase "after" (fun () -> ());
  let r = Obs.Prof.report () in
  let d = self_domain () in
  let boom = Option.get (find_phase r "boom" d) in
  Alcotest.(check int) "raised phase still counted" 1 boom.Obs.Prof.ph_count;
  (* the raising frame was popped: "after" is top-level, not a child *)
  let after = Option.get (find_phase r "after" d) in
  Alcotest.(check int) "after counted" 1 after.Obs.Prof.ph_count

(* -- per-domain attribution -------------------------------------------- *)

let test_multi_domain_attribution () =
  with_prof @@ fun () ->
  let items = List.init 32 (fun i -> i) in
  let results =
    Parallel.map ~domains:4
      (fun i -> Obs.Prof.phase "work" (fun () -> spin 0.002; i * i))
      items
  in
  Alcotest.(check int) "all items" 32 (List.length results);
  let r = Obs.Prof.report () in
  let work =
    List.filter (fun p -> p.Obs.Prof.ph_name = "work") r.Obs.Prof.r_phases
  in
  let total_count =
    List.fold_left (fun a p -> a + p.Obs.Prof.ph_count) 0 work
  in
  Alcotest.(check int) "32 calls across domains" 32 total_count;
  (* per-domain wall sums to at least the spin floor *)
  let total_wall =
    List.fold_left (fun a p -> a +. p.Obs.Prof.ph_wall_s) 0. work
  in
  Alcotest.(check bool) "wall >= 32 * spin" true (total_wall >= 32. *. 0.002);
  (* attribution never exceeds the report wall by more than the domain
     count (phases run concurrently, one per domain at most) *)
  Alcotest.(check bool) "wall bounded by wall * domains" true
    (total_wall <= r.Obs.Prof.r_wall_s *. 5.)

let test_worker_telemetry () =
  with_prof @@ fun () ->
  let items = List.init 40 (fun i -> i) in
  let _ = Parallel.map ~domains:4 (fun i -> spin 0.001; i) items in
  let r = Obs.Prof.report () in
  let workers = r.Obs.Prof.r_workers in
  Alcotest.(check bool) "some worker rows" true (List.length workers >= 1);
  let items_total =
    List.fold_left (fun a w -> a + w.Obs.Prof.wk_items) 0 workers
  in
  Alcotest.(check int) "items conserved" 40 items_total;
  List.iter
    (fun w ->
      Alcotest.(check bool) "busy >= 0" true (w.Obs.Prof.wk_busy_s >= 0.);
      Alcotest.(check bool) "idle >= 0" true (w.Obs.Prof.wk_idle_s >= 0.))
    workers;
  (* worker slot 0 is the caller and always takes part *)
  Alcotest.(check bool) "slot 0 present" true
    (List.exists (fun w -> w.Obs.Prof.wk_worker = 0) workers)

(* Every wave of a multi-domain scan spawns fresh domains, but the same
   worker slots: per-block evaluation is charged to one row per worker. *)
let test_scan_rows_per_worker () =
  let _, costs = Helpers.random_instance ~seed:3 ~m:12 ~tasks:20 () in
  let c = Replay.compile (Caft.run ~epsilon:2 costs) in
  with_prof @@ fun () ->
  (* C(12,3) = 220 subsets, 32 times over: 7040 items, 14 waves of two
     256-item blocks (so slot 1 claims a block in some wave, even if the
     caller wins the claim race in a few) *)
  let items =
    Seq.concat (Seq.init 32 (fun _ -> Fault_check.subsets ~n:12 ~k:3))
  in
  let scanned =
    Replay.scan ~domains:2 c ~fill:Scenario.write_from_start
      ~consume:(fun _ _ _ -> true)
      items
  in
  Alcotest.(check int) "every item consumed" 7040 scanned;
  let r = Obs.Prof.report () in
  let workers =
    List.filter_map
      (fun p ->
        if p.Obs.Prof.ph_name = "replay.eval_batch" then
          Some p.Obs.Prof.ph_domain
        else None)
      r.Obs.Prof.r_phases
  in
  Alcotest.(check (list int)) "one row per worker slot" [ 0; 1 ] workers

(* -- GC deltas ---------------------------------------------------------- *)

let test_gc_delta () =
  with_prof @@ fun () ->
  Obs.Prof.phase "alloc" (fun () ->
      let acc = ref [] in
      for i = 1 to 50_000 do
        acc := (i, float_of_int i) :: !acc
      done;
      ignore (Sys.opaque_identity !acc));
  Obs.Prof.phase "quiet" (fun () -> ());
  let r = Obs.Prof.report () in
  let d = self_domain () in
  let alloc = Option.get (find_phase r "alloc" d) in
  let quiet = Option.get (find_phase r "quiet" d) in
  (* 50k boxed pairs: at least 4 words each *)
  Alcotest.(check bool) "alloc phase charged minor words" true
    (alloc.Obs.Prof.ph_minor_words >= 200_000.);
  Alcotest.(check bool) "quiet phase nearly free" true
    (quiet.Obs.Prof.ph_minor_words < 1_000.);
  Alcotest.(check bool) "collections non-negative" true
    (alloc.Obs.Prof.ph_minor_collections >= 0
    && alloc.Obs.Prof.ph_major_collections >= 0)

let test_gc_monotone_across_calls () =
  with_prof @@ fun () ->
  let words_after n =
    Obs.Prof.reset ();
    for _ = 1 to n do
      Obs.Prof.phase "alloc" (fun () ->
          ignore (Sys.opaque_identity (List.init 10_000 (fun i -> (i, i)))))
    done;
    let r = Obs.Prof.report () in
    (Option.get (find_phase r "alloc" (self_domain ()))).Obs.Prof.ph_minor_words
  in
  let w1 = words_after 1 in
  let w4 = words_after 4 in
  Alcotest.(check bool) "4 calls allocate more than 1" true (w4 > w1);
  Alcotest.(check bool) "roughly linear (>=3x)" true (w4 >= 3. *. w1)

(* -- report / JSON ------------------------------------------------------ *)

let test_json_roundtrip () =
  with_prof @@ fun () ->
  Obs.Prof.phase "a" (fun () -> Obs.Prof.phase "b" (fun () -> spin 0.002));
  let _ = Parallel.map ~domains:2 (fun i -> i) [ 1; 2; 3 ] in
  let r = Obs.Prof.report () in
  let j = Obs.Prof.to_json r in
  (* through the printer and parser, not just the constructors *)
  let j' = Json.parse_exn (Json.to_string j) in
  let field k o = Option.get (Json.member k o) in
  Alcotest.(check (option string)) "schema" (Some "ftsched/profile/v1")
    (Json.to_str (field "schema" j'));
  let phases = Json.to_list (field "phases" j') in
  Alcotest.(check int) "phase rows survive"
    (List.length r.Obs.Prof.r_phases)
    (List.length phases);
  Alcotest.(check int) "worker rows survive"
    (List.length r.Obs.Prof.r_workers)
    (List.length (Json.to_list (field "workers" j')));
  List.iter2
    (fun p o ->
      Alcotest.(check (option string)) "name" (Some p.Obs.Prof.ph_name)
        (Json.to_str (field "name" o));
      Alcotest.(check (option int)) "domain" (Some p.Obs.Prof.ph_domain)
        (Json.to_int (field "domain" o));
      Alcotest.(check (option int)) "count" (Some p.Obs.Prof.ph_count)
        (Json.to_int (field "count" o));
      Alcotest.(check bool) "wall close" true
        (let wall = Option.get (Json.to_float (field "wall_s" o)) in
         Float.abs (p.Obs.Prof.ph_wall_s -. wall) < 1e-6))
    r.Obs.Prof.r_phases phases

let test_report_sorted () =
  with_prof @@ fun () ->
  Obs.Prof.phase "zeta" (fun () -> ());
  Obs.Prof.phase "alpha" (fun () -> ());
  Obs.Prof.phase "mid" (fun () -> ());
  let r = Obs.Prof.report () in
  let names = List.map (fun p -> p.Obs.Prof.ph_name) r.Obs.Prof.r_phases in
  Alcotest.(check (list string)) "sorted by name" [ "alpha"; "mid"; "zeta" ]
    names

let test_reset () =
  with_prof @@ fun () ->
  Obs.Prof.phase "x" (fun () -> ());
  Obs.Prof.reset ();
  let r = Obs.Prof.report () in
  Alcotest.(check int) "phases cleared" 0 (List.length r.Obs.Prof.r_phases);
  Alcotest.(check int) "workers cleared" 0 (List.length r.Obs.Prof.r_workers)

let suite =
  [
    Alcotest.test_case "nesting: wall inclusive, self exclusive" `Quick
      test_nesting;
    Alcotest.test_case "disabled phase is transparent" `Quick
      test_disabled_is_transparent;
    Alcotest.test_case "exception closes the frame" `Quick
      test_exception_closes_frame;
    Alcotest.test_case "multi-domain attribution" `Quick
      test_multi_domain_attribution;
    Alcotest.test_case "Parallel.map worker telemetry" `Quick
      test_worker_telemetry;
    Alcotest.test_case "multi-wave scan: one row per worker" `Quick
      test_scan_rows_per_worker;
    Alcotest.test_case "GC delta attribution" `Quick test_gc_delta;
    Alcotest.test_case "GC deltas accumulate across calls" `Quick
      test_gc_monotone_across_calls;
    Alcotest.test_case "JSON round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "report sorted by (name, domain)" `Quick
      test_report_sorted;
    Alcotest.test_case "reset clears state" `Quick test_reset;
  ]
