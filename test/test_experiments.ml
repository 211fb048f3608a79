(* Tests for the experiment harness: configurations, campaign runs,
   report rendering, and the lower-bound calibration. *)

let test_config_figures () =
  let f1 = Config.figure 1 in
  Helpers.check_int "fig1 m" 10 f1.Config.m;
  Helpers.check_int "fig1 eps" 1 f1.Config.epsilon;
  Helpers.check_int "fig1 crashes" 1 f1.Config.crashes;
  Helpers.check_int "fig1 points" 10 (List.length f1.Config.granularities);
  Helpers.check_int "fig1 graphs" 60 f1.Config.graphs_per_point;
  Helpers.check_float "range A starts" 0.2 (List.hd f1.Config.granularities);
  let f6 = Config.figure 6 in
  Helpers.check_int "fig6 m" 20 f6.Config.m;
  Helpers.check_int "fig6 eps" 5 f6.Config.epsilon;
  Helpers.check_int "fig6 crashes" 3 f6.Config.crashes;
  Helpers.check_float "range B starts" 1. (List.hd f6.Config.granularities);
  Alcotest.check_raises "figure 7"
    (Invalid_argument "Config.figure: no figure 7") (fun () ->
      ignore (Config.figure 7));
  let quick = Config.with_graphs_per_point f1 3 in
  Helpers.check_int "override graphs" 3 quick.Config.graphs_per_point;
  Alcotest.check_raises "bad override"
    (Invalid_argument "Config.with_graphs_per_point") (fun () ->
      ignore (Config.with_graphs_per_point f1 0))

let small_campaign () =
  let config =
    Config.with_graphs_per_point
      { (Config.figure 1) with Config.granularities = [ 0.5; 1.5 ] }
      3
  in
  Campaign.run ~seed:99 config

let test_campaign_shape () =
  let result = small_campaign () in
  Helpers.check_int "two points" 2 (List.length result.Campaign.points);
  List.iter
    (fun (p : Campaign.point) ->
      Helpers.check_bool "latencies positive" true
        (p.Campaign.caft.Campaign.latency0 > 0.
        && p.Campaign.ftsa.Campaign.latency0 > 0.
        && p.Campaign.ftbar.Campaign.latency0 > 0.);
      Helpers.check_bool "upper >= latency0" true
        (p.Campaign.caft.Campaign.upper
        >= p.Campaign.caft.Campaign.latency0 -. 1e-9);
      Helpers.check_bool "fault-free below replicated (caft)" true
        (p.Campaign.fault_free_caft
        <= p.Campaign.caft.Campaign.latency0 +. 1e-9);
      Helpers.check_bool "crash latency finite" true
        (Float.is_finite p.Campaign.caft.Campaign.latency_crash);
      Helpers.check_bool "messages positive" true
        (p.Campaign.caft.Campaign.messages > 0.);
      Helpers.check_bool "edges recorded" true (p.Campaign.edges > 0.))
    result.Campaign.points;
  (* granularity ordering preserved *)
  match result.Campaign.points with
  | [ a; b ] ->
      Helpers.check_float "first point g" 0.5 a.Campaign.granularity;
      Helpers.check_float "second point g" 1.5 b.Campaign.granularity
  | _ -> Alcotest.fail "expected two points"

let test_campaign_deterministic () =
  let r1 = small_campaign () and r2 = small_campaign () in
  List.iter2
    (fun (a : Campaign.point) (b : Campaign.point) ->
      Helpers.check_float "same caft latency" a.Campaign.caft.Campaign.latency0
        b.Campaign.caft.Campaign.latency0;
      Helpers.check_float "same ftbar overhead"
        a.Campaign.ftbar.Campaign.overhead_crash
        b.Campaign.ftbar.Campaign.overhead_crash)
    r1.Campaign.points r2.Campaign.points

let test_report_rendering () =
  let result = small_campaign () in
  let full = Report.render result in
  Helpers.check_bool "render has panels" true
    (String.length full > 500);
  let csv = Report.to_csv result in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  Helpers.check_int "csv rows = header + points" 3 (List.length lines);
  Helpers.check_bool "csv header" true
    (String.length (List.hd lines) > 20);
  (* each panel table renders with a row per granularity *)
  List.iter
    (fun table ->
      let s = Text_table.to_string table in
      let rows = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
      Helpers.check_int "table rows" 4 (List.length rows))
    [ Report.panel_a result; Report.panel_b result; Report.panel_c result;
      Report.messages result ]

let test_normalization () =
  let _, costs = Helpers.random_instance ~seed:61 () in
  let norm = Campaign.normalization costs in
  Helpers.check_bool "normalization positive" true (norm > 0.);
  (* invariant under granularity rescaling (it only touches exec costs) *)
  let rescaled = Granularity.rescale_to costs 4.0 in
  Helpers.check_float "normalization invariant" norm
    (Campaign.normalization rescaled);
  (* equals mean over edges of volume * mean delay *)
  let dag = Costs.dag costs in
  let md = Platform.mean_delay (Costs.platform costs) in
  let expected =
    Dag.fold_edges (fun _ _ v acc -> acc +. (v *. md)) dag 0.
    /. float_of_int (Dag.edge_count dag)
  in
  Alcotest.(check (float 1e-9)) "normalization formula" expected norm

let test_bounds () =
  let dag = Helpers.chain3 () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Costs.of_matrix dag platform [| [| 4.; 8. |]; [| 6.; 3. |]; [| 5.; 5. |] |] in
  (* critical path with fastest execs: 4 + 3 + 5 = 12 *)
  Helpers.check_float "critical path bound" 12. (Bounds.critical_path costs);
  (* work bound: (4 + 3 + 5) / 2 = 6 *)
  Helpers.check_float "work bound" 6. (Bounds.work costs);
  (* a fork spreads: work bound can dominate *)
  let fork = Families.fork ~volume:0.1 8 in
  let fcosts = Helpers.flat_costs ~c:10. fork (Helpers.uniform_platform 2) in
  Helpers.check_float "fork work bound" 45. (Bounds.work fcosts);
  Helpers.check_bool "fork: work dominates cp" true
    (Bounds.critical_path fcosts < Bounds.work fcosts)

let test_bounds_hold_for_schedulers () =
  for seed = 70 to 75 do
    let _, costs = Helpers.random_instance ~seed () in
    let lb = Float.max (Bounds.critical_path costs) (Bounds.work costs) in
    List.iter
      (fun sched ->
        Helpers.check_bool "latency >= lower bound" true
          (Schedule.latency_zero_crash sched >= lb -. 1e-6))
      [ Heft.run costs; Caft.run ~epsilon:1 costs; Ftsa.run ~epsilon:2 costs ]
  done

let test_parallel_map () =
  let xs = List.init 57 Fun.id in
  let f x = (x * x) + 1 in
  Helpers.check_bool "order preserved, all domains" true
    (Parallel.map ~domains:4 f xs = List.map f xs);
  Helpers.check_bool "single domain" true
    (Parallel.map ~domains:1 f xs = List.map f xs);
  Helpers.check_bool "more domains than items" true
    (Parallel.map ~domains:64 f [ 1; 2; 3 ] = [ 2; 5; 10 ]);
  Helpers.check_bool "empty list" true (Parallel.map ~domains:4 f [] = []);
  Helpers.check_bool "default domain count" true
    (Parallel.map f xs = List.map f xs);
  (* exceptions propagate *)
  match
    Parallel.map ~domains:3 (fun x -> if x = 5 then failwith "boom" else x) xs
  with
  | exception Failure msg -> Helpers.check_bool "exn propagates" true (msg = "boom")
  | _ -> Alcotest.fail "expected exception"

let test_parallel_campaign_identical () =
  let config =
    Config.with_graphs_per_point
      { (Config.figure 1) with Config.granularities = [ 1.0 ] }
      4
  in
  let a = Campaign.run ~domains:1 config in
  let b = Campaign.run ~domains:4 config in
  List.iter2
    (fun (p : Campaign.point) (q : Campaign.point) ->
      Helpers.check_float "identical caft" p.Campaign.caft.Campaign.latency0
        q.Campaign.caft.Campaign.latency0;
      Helpers.check_float "identical stddev"
        p.Campaign.caft.Campaign.latency0_stddev
        q.Campaign.caft.Campaign.latency0_stddev)
    a.Campaign.points b.Campaign.points

let test_gnuplot_script () =
  let result = small_campaign () in
  let script = Report.to_gnuplot result ~data:"fig1.csv" in
  let contains needle =
    let nl = String.length needle and hl = String.length script in
    let rec go i = i + nl <= hl && (String.sub script i nl = needle || go (i + 1)) in
    go 0
  in
  Helpers.check_bool "references the data file" true (contains "'fig1.csv'");
  Helpers.check_bool "three outputs" true
    (contains "fig1_a.png" && contains "fig1_b.png" && contains "fig1_c.png");
  Helpers.check_bool "crash series titled with the crash count" true
    (contains "CAFT With 1 Crash");
  Helpers.check_bool "csv separator set" true
    (contains "set datafile separator ','")

(* A campaign killed mid-run (simulated by a progress callback that
   raises after the first completed point) leaves a checkpoint from which
   the rerun produces a report byte-identical to an uninterrupted run. *)
exception Killed

let test_campaign_checkpoint_resume () =
  let config =
    Config.with_graphs_per_point
      { (Config.figure 1) with Config.granularities = [ 0.5; 1.0; 1.5 ] }
      2
  in
  let seed = 77 in
  let reference = Campaign.run ~seed ~progress:ignore config in
  let path = Filename.temp_file "ftsched_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let count = ref 0 in
      let killer _msg =
        incr count;
        if !count >= 2 then raise Killed
      in
      (try
         ignore (Campaign.run ~seed ~progress:killer ~checkpoint:path config);
         Alcotest.fail "campaign survived the kill"
       with Killed -> ());
      (* only the first point made it to disk before the kill *)
      let restored = ref 0 in
      let watch msg =
        if
          String.length msg >= 10
          && String.sub msg (String.length msg - 10) 10 = "checkpoint"
        then incr restored
      in
      let resumed =
        Campaign.run ~seed ~progress:watch ~checkpoint:path config
      in
      Helpers.check_int "one point restored" 1 !restored;
      Alcotest.(check string)
        "byte-identical report"
        (Report.render reference)
        (Report.render resumed);
      (* a second resume restores everything and stays identical *)
      let resumed2 =
        Campaign.run ~seed ~progress:ignore ~checkpoint:path config
      in
      Alcotest.(check string)
        "fully-restored report"
        (Report.render reference)
        (Report.render resumed2);
      (* a checkpoint under another seed is ignored, not misapplied *)
      let other =
        Campaign.run ~seed:(seed + 1) ~progress:ignore ~checkpoint:path config
      in
      Helpers.check_int "other seed recomputed" 3
        (List.length other.Campaign.points))

(* A corrupt checkpoint (not valid JSON — which atomic saves never
   produce, so it means outside interference) must stop the run with a
   clear error instead of silently restarting the sweep and then dying
   mid-write over the completed points. *)
let test_campaign_checkpoint_corrupt () =
  let config =
    Config.with_graphs_per_point
      { (Config.figure 1) with Config.granularities = [ 0.5 ] }
      1
  in
  let seed = 5 in
  let path = Filename.temp_file "ftsched_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () ->
      (* temp_file's empty file counts as absent, not corrupt *)
      ignore (Campaign.run ~seed ~progress:ignore ~checkpoint:path config);
      let intact =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* truncate the file mid-structure, as a non-atomic writer's crash
         would have: the braces never close, the JSON never parses *)
      let oc = open_out path in
      output_string oc (String.sub intact 0 (String.length intact / 2));
      close_out oc;
      (match Campaign.run ~seed ~progress:ignore ~checkpoint:path config with
      | _ -> Alcotest.fail "corrupt checkpoint was silently accepted"
      | exception Campaign.Checkpoint_error msg ->
          Helpers.check_bool "names the file" true
            (let nn = String.length path and nh = String.length msg in
             let rec go i =
               i + nn <= nh && (String.sub msg i nn = path || go (i + 1))
             in
             go 0));
      (* pure garbage fails the same way *)
      let oc = open_out path in
      output_string oc "\x00\x01 not json at all";
      close_out oc;
      (match Campaign.run ~seed ~progress:ignore ~checkpoint:path config with
      | _ -> Alcotest.fail "garbage checkpoint was silently accepted"
      | exception Campaign.Checkpoint_error _ -> ());
      (* the real crash footprint — an orphaned .tmp beside an intact
         checkpoint — resumes cleanly (saves are temp + rename) *)
      let oc = open_out path in
      output_string oc intact;
      close_out oc;
      let oc = open_out (path ^ ".tmp") in
      output_string oc "{ torn mid-wri";
      close_out oc;
      let restored = ref 0 in
      let watch msg =
        if
          String.length msg >= 10
          && String.sub msg (String.length msg - 10) 10 = "checkpoint"
        then incr restored
      in
      let r = Campaign.run ~seed ~progress:watch ~checkpoint:path config in
      Helpers.check_int "point restored despite orphan .tmp" 1 !restored;
      Helpers.check_int "one point" 1 (List.length r.Campaign.points))

let suite =
  [
    Alcotest.test_case "gnuplot script" `Slow test_gnuplot_script;
    Alcotest.test_case "campaign checkpoint resume" `Slow
      test_campaign_checkpoint_resume;
    Alcotest.test_case "campaign checkpoint corruption" `Slow
      test_campaign_checkpoint_corrupt;
    Alcotest.test_case "parallel map" `Quick test_parallel_map;
    Alcotest.test_case "parallel campaign identical" `Slow
      test_parallel_campaign_identical;
    Alcotest.test_case "figure configurations" `Quick test_config_figures;
    Alcotest.test_case "campaign shape" `Slow test_campaign_shape;
    Alcotest.test_case "campaign determinism" `Slow test_campaign_deterministic;
    Alcotest.test_case "report rendering" `Slow test_report_rendering;
    Alcotest.test_case "normalization" `Quick test_normalization;
    Alcotest.test_case "latency lower bounds" `Quick test_bounds;
    Alcotest.test_case "bounds hold for schedulers" `Quick
      test_bounds_hold_for_schedulers;
  ]
