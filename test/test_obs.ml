(* Observability layer: metrics registry semantics, agreement between the
   decision counters and the Proposition 5.1 join classifier, Chrome
   trace-event output, and domain safety under Parallel.map. *)

let counter_value name =
  match Obs_metrics.find name with
  | Some (Obs_metrics.Counter n) -> n
  | Some _ -> Alcotest.failf "metric %s is not a counter" name
  | None -> Alcotest.failf "metric %s not registered" name

let with_metrics f =
  Obs_metrics.reset ();
  Obs_metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs_metrics.set_enabled false) f

(* -- registry semantics ------------------------------------------------- *)

let test_registry_basics () =
  let c = Obs_metrics.counter "test.basics" in
  let c' = Obs_metrics.counter "test.basics" in
  (* idempotent: both handles hit the same cell *)
  with_metrics (fun () ->
      Obs_metrics.incr c;
      Obs_metrics.incr ~by:2 c';
      Helpers.check_int "shared cell" 3 (counter_value "test.basics"));
  (* kind mismatch is a programming error *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Obs.Metrics: \"test.basics\" already registered with another kind")
    (fun () -> ignore (Obs_metrics.gauge "test.basics"));
  (* disabled recording is a no-op *)
  Obs_metrics.reset ();
  Obs_metrics.incr c;
  Helpers.check_int "disabled" 0 (counter_value "test.basics")

let test_histogram_summary () =
  with_metrics (fun () ->
      let h =
        Obs_metrics.histogram ~buckets:[| 1.; 10. |] "test.histogram"
      in
      List.iter (Obs_metrics.observe h) [ 0.5; 5.; 50. ];
      match Obs_metrics.find "test.histogram" with
      | Some (Obs_metrics.Histogram s) ->
          Helpers.check_int "count" 3 s.Obs_metrics.hs_count;
          Helpers.check_float "min" 0.5 s.Obs_metrics.hs_min;
          Helpers.check_float "max" 50. s.Obs_metrics.hs_max;
          Helpers.check_float "mean" (55.5 /. 3.) s.Obs_metrics.hs_mean;
          Alcotest.(check (list int))
            "bucket counts" [ 1; 1; 1 ]
            (List.map snd s.Obs_metrics.hs_buckets)
      | _ -> Alcotest.fail "histogram not found")

(* -- decision counters vs the Proposition 5.1 classifier ---------------- *)

(* On an out-forest CAFT achieves pure one-to-one joins, so the per-replica
   decision counter must equal (epsilon+1) x (one-to-one joins) exactly,
   with no full-replication fallback. *)
let test_fork_counters_match_mapping () =
  with_metrics (fun () ->
      let dag = Families.fork 20 in
      let rng = Rng.create 2008 in
      let params = Platform_gen.default ~m:6 () in
      let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
      let epsilon = 2 in
      let sched = Caft.run ~seed:2008 ~epsilon costs in
      let report = Mapping.verify sched in
      Helpers.check_bool "fork joins all one-to-one" true
        report.Mapping.mp_all_one_to_one;
      let e = Dag.edge_count dag in
      Helpers.check_int "one-to-one decisions"
        ((epsilon + 1) * Mapping.count report Mapping.One_to_one)
        (counter_value "caft.one_to_one");
      Helpers.check_int "one-to-one joins classified" e
        (Mapping.count report Mapping.One_to_one);
      Helpers.check_int "no fallback" 0 (counter_value "caft.full_replication"))

(* On any graph, every committed replica records exactly one mode per
   predecessor: one_to_one + full_replication = (epsilon+1) * e.  The
   net-layer counter must agree with the schedule's own message count
   (probes record nothing). *)
let test_counter_invariants_random () =
  List.iter
    (fun (seed, epsilon) ->
      with_metrics (fun () ->
          let _, costs = Helpers.random_instance ~seed ~m:6 ~tasks:30 () in
          let sched = Caft.run ~seed ~epsilon costs in
          let e = Dag.edge_count (Costs.dag costs) in
          Helpers.check_int
            (Printf.sprintf "decision sum (seed %d, eps %d)" seed epsilon)
            ((epsilon + 1) * e)
            (counter_value "caft.one_to_one"
            + counter_value "caft.full_replication");
          Helpers.check_int
            (Printf.sprintf "remote messages (seed %d)" seed)
            (Schedule.message_count sched)
            (counter_value "net.messages.remote")))
    [ (1, 1); (2, 2); (3, 3) ]

(* -- trace output ------------------------------------------------------- *)

let test_trace_roundtrip () =
  Obs_trace.start ();
  let sched =
    Fun.protect
      ~finally:(fun () -> Obs_trace.stop ())
      (fun () ->
        let _, costs = Helpers.random_instance ~seed:4 ~m:5 ~tasks:20 () in
        let sched = Caft.run ~seed:4 ~epsilon:1 costs in
        ignore (Validate.run sched);
        sched)
  in
  ignore sched;
  (* the buffer survives [stop] until the next [start] *)
  Alcotest.(check bool) "events recorded" true (Obs_trace.event_count () > 0);
  let parsed = Json.parse_exn (Json.to_string (Obs_trace.to_json ())) in
  let fields =
    match parsed with Json.Obj f -> f | _ -> Alcotest.fail "not an object"
  in
  let events =
    match List.assoc "traceEvents" fields with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  let str k f = match List.assoc k f with Json.String s -> s | _ -> "" in
  let num k f =
    match List.assoc_opt k f with
    | Some (Json.Float x) -> x
    | Some (Json.Int n) -> float_of_int n
    | _ -> nan
  in
  let spans =
    List.filter_map
      (function
        | Json.Obj f when str "ph" f = "X" ->
            Some (str "name" f, num "ts" f, num "dur" f, num "tid" f)
        | _ -> None)
      events
  in
  let names = List.sort_uniq compare (List.map (fun (n, _, _, _) -> n) spans) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true (List.mem expected names))
    [ "priorities"; "place"; "validate" ];
  List.iter
    (fun (name, ts, dur, _) ->
      if Float.is_nan ts || Float.is_nan dur || ts < 0. || dur < 0. then
        Alcotest.failf "span %s: bad ts/dur (%f, %f)" name ts dur)
    spans;
  (* spans on one track must nest: never partially overlap *)
  let overlap (_, s1, d1, t1) (_, s2, d2, t2) =
    t1 = t2 && s1 < s2 && s2 < s1 +. d1 && s1 +. d1 < s2 +. d2
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if overlap a b then
            let (n1, _, _, _), (n2, _, _, _) = (a, b) in
            Alcotest.failf "spans %s and %s partially overlap" n1 n2)
        spans)
    spans

(* -- domain safety ------------------------------------------------------ *)

let test_parallel_registry () =
  with_metrics (fun () ->
      let c = Obs_metrics.counter "test.parallel" in
      let h = Obs_metrics.histogram "test.parallel_hist" in
      let results =
        Parallel.map ~domains:4
          (fun i ->
            (* registration from worker domains must be race-free and hit
               the same cells as the main domain's handles *)
            let c' = Obs_metrics.counter "test.parallel" in
            for _ = 1 to 1000 do
              Obs_metrics.incr c'
            done;
            Obs_metrics.observe h (float_of_int i);
            i)
          (List.init 64 Fun.id)
      in
      Helpers.check_int "map preserved" 64 (List.length results);
      Helpers.check_int "counter total" 64_000 (counter_value "test.parallel");
      (match Obs_metrics.find "test.parallel_hist" with
      | Some (Obs_metrics.Histogram s) ->
          Helpers.check_int "histogram total" 64 s.Obs_metrics.hs_count
      | _ -> Alcotest.fail "histogram not found");
      ignore c)

(* -- sharded registry --------------------------------------------------- *)

let test_sharded_exact_totals () =
  (* 4-domain stress: exact totals across counter, gauge-add and histogram
     despite every worker recording into its own shard *)
  with_metrics (fun () ->
      let c = Obs_metrics.counter "test.shard_exact" in
      let g = Obs_metrics.gauge "test.shard_gauge" in
      let h = Obs_metrics.histogram "test.shard_hist" in
      let items = List.init 64 Fun.id in
      let _ =
        Parallel.map ~domains:4
          (fun i ->
            for _ = 1 to 1000 do
              Obs_metrics.incr c
            done;
            Obs_metrics.add g 0.5;
            Obs_metrics.observe h (float_of_int (i mod 7));
            i)
          items
      in
      Helpers.check_int "counter exact" 64_000 (counter_value "test.shard_exact");
      (match Obs_metrics.find "test.shard_gauge" with
      | Some (Obs_metrics.Gauge v) ->
          Alcotest.(check (float 1e-9)) "gauge adds sum across shards" 32.0 v
      | _ -> Alcotest.fail "gauge not found");
      match Obs_metrics.find "test.shard_hist" with
      | Some (Obs_metrics.Histogram s) ->
          Helpers.check_int "histogram count exact" 64 s.Obs_metrics.hs_count;
          (* mean of (i mod 7) over 0..63: 64 obs, sum = 9*(0+..+6) + 0 =
             189 + (0+..+0)... compute directly *)
          let expect =
            List.fold_left (fun a i -> a +. float_of_int (i mod 7)) 0. items
            /. 64.
          in
          Alcotest.(check (float 1e-9)) "histogram mean exact" expect
            s.Obs_metrics.hs_mean
      | _ -> Alcotest.fail "histogram not found")

let test_shard_vs_global_single_domain () =
  (* a single-domain run must aggregate to exactly what the sequential
     accumulator would produce — one shard, empty-merge path *)
  with_metrics (fun () ->
      let h = Obs_metrics.histogram "test.shard_single" in
      List.iter (Obs_metrics.observe h) [ 1.0; 2.5; 52.0 ];
      match Obs_metrics.find "test.shard_single" with
      | Some (Obs_metrics.Histogram s) ->
          Helpers.check_int "count" 3 s.Obs_metrics.hs_count;
          Alcotest.(check (float 1e-12)) "mean bit-exact" (55.5 /. 3.)
            s.Obs_metrics.hs_mean;
          Alcotest.(check (float 1e-12)) "min" 1.0 s.Obs_metrics.hs_min;
          Alcotest.(check (float 1e-12)) "max" 52.0 s.Obs_metrics.hs_max
      | _ -> Alcotest.fail "histogram not found")

let test_shard_count_bounded () =
  (* shards of joined domains are folded into the retired base: campaigns
     of many Parallel.map calls must not leak a shard per spawned domain *)
  with_metrics (fun () ->
      let c = Obs_metrics.counter "test.shard_bound" in
      for _ = 1 to 5 do
        ignore
          (Parallel.map ~domains:4 (fun i -> Obs_metrics.incr c; i)
             (List.init 8 Fun.id))
      done;
      Helpers.check_int "all increments survive the folds" 40
        (counter_value "test.shard_bound");
      (* only live domains hold shards now — just this one *)
      Alcotest.(check bool) "shards bounded by live domains" true
        (Obs_metrics.shard_count () <= 2))

let test_dump_sorted () =
  let _ = Obs_metrics.counter "test.zz_sort" in
  let _ = Obs_metrics.counter "test.aa_sort" in
  let names = List.map (fun (n, _, _) -> n) (Obs_metrics.dump ()) in
  let sorted = List.sort compare names in
  Alcotest.(check (list string)) "dump sorted by name" sorted names

(* -- trace lifecycle ---------------------------------------------------- *)

let test_trace_stop_concurrent_spans () =
  (* spans racing [stop] must either land in the buffer or be dropped
     whole — never crash, and a post-stop flush sees a stable count *)
  Obs_trace.start ();
  let _ =
    Parallel.map ~domains:3
      (fun i ->
        for j = 0 to 50 do
          Obs_trace.with_span "race" (fun () -> ignore (i * j))
        done;
        if i = 5 then Obs_trace.stop ();
        i)
      (List.init 12 Fun.id)
  in
  Obs_trace.stop ();
  let n1 = Obs_trace.event_count () in
  let n2 = Obs_trace.event_count () in
  Helpers.check_int "count stable after stop" n1 n2;
  Obs_trace.clear ()

(* -- monte-carlo pretty-printer ----------------------------------------- *)

let test_montecarlo_pp_nan () =
  let r =
    {
      Monte_carlo.runs = 5;
      completed = 0;
      replays = 5;
      latency = None;
      worst_slowdown = nan;
      failure_rate = 1.;
      degradation = None;
    }
  in
  let s = Format.asprintf "%a" Monte_carlo.pp r in
  Alcotest.(check string)
    "nan renders as -"
    "0/5 runs completed (failure rate 100.00%, 5 replays)\n\
     no completed run (worst slowdown -)"
    s

let suite =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
    Alcotest.test_case "fork counters match mapping" `Quick
      test_fork_counters_match_mapping;
    Alcotest.test_case "counter invariants on random graphs" `Quick
      test_counter_invariants_random;
    Alcotest.test_case "trace JSON round-trip" `Quick test_trace_roundtrip;
    Alcotest.test_case "parallel registry" `Quick test_parallel_registry;
    Alcotest.test_case "sharded exact totals (4 domains)" `Quick
      test_sharded_exact_totals;
    Alcotest.test_case "single-domain aggregation bit-exact" `Quick
      test_shard_vs_global_single_domain;
    Alcotest.test_case "shard count bounded after joins" `Quick
      test_shard_count_bounded;
    Alcotest.test_case "dump sorted by name" `Quick test_dump_sorted;
    Alcotest.test_case "concurrent spans across stop" `Quick
      test_trace_stop_concurrent_spans;
    Alcotest.test_case "montecarlo pp nan" `Quick test_montecarlo_pp_nan;
  ]
