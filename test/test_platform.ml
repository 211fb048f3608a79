(* Unit tests for platforms, cost matrices, levels and granularity. *)

let test_platform_create () =
  let p = Helpers.uniform_platform 4 in
  Helpers.check_int "proc count" 4 (Platform.proc_count p);
  Helpers.check_float "diagonal zero" 0. (Platform.delay p 2 2);
  Helpers.check_float "off diagonal" 1. (Platform.delay p 0 3);
  Helpers.check_float "comm time" 42. (Platform.comm_time p ~src:0 ~dst:1 ~volume:42.);
  Helpers.check_float "intra comm free" 0.
    (Platform.comm_time p ~src:1 ~dst:1 ~volume:42.);
  Helpers.check_bool "procs list" true (Platform.procs p = [ 0; 1; 2; 3 ]);
  Helpers.check_float "mean delay" 1. (Platform.mean_delay p);
  Helpers.check_float "max delay" 1. (Platform.max_delay p)

let test_platform_heterogeneous () =
  let delays = [| [| 0.; 0.5 |]; [| 2.0; 0. |] |] in
  let p = Platform.create ~delays in
  Helpers.check_float "asymmetric delays" 0.5 (Platform.delay p 0 1);
  Helpers.check_float "asymmetric delays back" 2.0 (Platform.delay p 1 0);
  Helpers.check_float "mean" 1.25 (Platform.mean_delay p);
  Helpers.check_float "max" 2.0 (Platform.max_delay p)

let test_platform_rejects () =
  Alcotest.check_raises "no processors"
    (Invalid_argument "Platform.create: no processors") (fun () ->
      ignore (Platform.create ~delays:[||]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Platform.create: ragged matrix") (fun () ->
      ignore (Platform.create ~delays:[| [| 0.; 1. |]; [| 1. |] |]));
  Alcotest.check_raises "nonzero diagonal"
    (Invalid_argument "Platform.create: non-zero diagonal delay") (fun () ->
      ignore (Platform.create ~delays:[| [| 1. |] |]));
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Platform.create: invalid delay") (fun () ->
      ignore (Platform.create ~delays:[| [| 0.; -1. |]; [| 1.; 0. |] |]))

let test_single_proc_platform () =
  let p = Platform.uniform ~m:1 ~delay:3. in
  Helpers.check_float "mean delay with one proc" 0. (Platform.mean_delay p);
  Helpers.check_float "max delay with one proc" 0. (Platform.max_delay p)

let test_costs () =
  let g = Helpers.chain3 () in
  let p = Helpers.uniform_platform 2 in
  let c = Costs.of_matrix g p [| [| 2.; 4. |]; [| 6.; 6. |]; [| 1.; 3. |] |] in
  Helpers.check_float "exec" 4. (Costs.exec c 0 1);
  Helpers.check_float "mean exec" 3. (Costs.mean_exec c 0);
  Helpers.check_float "max exec" 4. (Costs.max_exec c 0);
  Helpers.check_float "min exec" 2. (Costs.min_exec c 0);
  let c2 = Costs.scale c 2. in
  Helpers.check_float "scaled" 8. (Costs.exec c2 0 1);
  Helpers.check_float "original untouched" 4. (Costs.exec c 0 1)

let test_costs_rejects () =
  let g = Helpers.chain3 () in
  let p = Helpers.uniform_platform 2 in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Costs.create: invalid execution cost") (fun () ->
      ignore (Costs.create g p (fun _ _ -> -1.)));
  Alcotest.check_raises "bad matrix arity"
    (Invalid_argument "Costs.of_matrix: task arity") (fun () ->
      ignore (Costs.of_matrix g p [| [| 1.; 1. |] |]));
  Alcotest.check_raises "bad scale" (Invalid_argument "Costs.scale: non-positive factor")
    (fun () -> ignore (Costs.scale (Helpers.flat_costs g p) 0.))

let test_levels_chain () =
  (* chain 0 -> 1 -> 2, unit volumes, flat cost 10, delay 1:
     node weight 10, edge weight 1 *)
  let g = Helpers.chain3 () in
  let p = Helpers.uniform_platform 3 in
  let c = Helpers.flat_costs ~c:10. g p in
  let l = Levels.compute c in
  let tl = Levels.dynamic_top_levels l in
  Helpers.check_float "tl entry" 0. tl.(0);
  Helpers.check_float "tl mid" 11. tl.(1);
  Helpers.check_float "tl exit" 22. tl.(2);
  Helpers.check_float "bl exit" 10. (Levels.bottom_level l 2);
  Helpers.check_float "bl mid" 21. (Levels.bottom_level l 1);
  Helpers.check_float "bl entry" 32. (Levels.bottom_level l 0);
  Helpers.check_float "priority constant on critical path" 32.
    (tl.(1) +. Levels.bottom_level l 1);
  Helpers.check_float "critical path" 32. (Levels.critical_path l)

let test_levels_diamond () =
  (* volumes 10/20/30/40, flat cost 5, delay 1 *)
  let g = Helpers.diamond_dag () in
  let p = Helpers.uniform_platform 2 in
  let c = Helpers.flat_costs ~c:5. g p in
  let l = Levels.compute c in
  (* tl(3) = max over branches: via 1: 0+5+10 +5+30 = hmm tl(3) =
     max(tl(1)+5+30, tl(2)+5+40); tl(1) = 5+10 = 15, tl(2) = 5+20 = 25
     => tl(3) = max(50, 70) = 70 *)
  Helpers.check_float "tl of sink" 70. (Levels.dynamic_top_levels l).(3);
  (* bl(0) = 5 + max(10 + bl(1), 20 + bl(2)); bl(1) = 5 + 30 + 5 = 40,
     bl(2) = 5 + 40 + 5 = 50 => bl(0) = 5 + max(50, 70) = 75 *)
  Helpers.check_float "bl of source" 75. (Levels.bottom_level l 0);
  Helpers.check_float "critical path" 75. (Levels.critical_path l)

let test_dynamic_top_levels () =
  let g = Helpers.chain3 () in
  let p = Helpers.uniform_platform 2 in
  let l = Levels.compute (Helpers.flat_costs g p) in
  let tl = Levels.dynamic_top_levels l in
  tl.(0) <- 99.;
  Helpers.check_float "copy does not alias" 0. (Levels.dynamic_top_levels l).(0)

let test_granularity () =
  (* chain3: slowest comp = 10 each (flat), slowest comm = 1 per edge
     => g = 30 / 2 = 15 *)
  let g = Helpers.chain3 () in
  let p = Helpers.uniform_platform 2 in
  let c = Helpers.flat_costs ~c:10. g p in
  Helpers.check_float "granularity" 15. (Granularity.compute c);
  let c2 = Granularity.rescale_to c 0.5 in
  Helpers.check_float "rescaled granularity" 0.5 (Granularity.compute c2);
  (* rescaling preserves relative exec costs *)
  Helpers.check_float "rescale is uniform"
    (Costs.exec c 1 0 /. Costs.exec c 0 0)
    (Costs.exec c2 1 0 /. Costs.exec c2 0 0)

let test_granularity_edge_cases () =
  let g = Dag.make ~n:2 ~edges:[] () in
  let p = Helpers.uniform_platform 2 in
  let c = Helpers.flat_costs g p in
  Helpers.check_bool "no edges -> infinite" true
    (Granularity.compute c = infinity);
  Alcotest.check_raises "cannot rescale degenerate"
    (Invalid_argument "Granularity.rescale_to: degenerate current granularity")
    (fun () -> ignore (Granularity.rescale_to c 1.))

let suite =
  [
    Alcotest.test_case "platform create" `Quick test_platform_create;
    Alcotest.test_case "heterogeneous delays" `Quick test_platform_heterogeneous;
    Alcotest.test_case "platform rejects" `Quick test_platform_rejects;
    Alcotest.test_case "single-processor platform" `Quick
      test_single_proc_platform;
    Alcotest.test_case "costs" `Quick test_costs;
    Alcotest.test_case "costs rejects" `Quick test_costs_rejects;
    Alcotest.test_case "levels on a chain" `Quick test_levels_chain;
    Alcotest.test_case "levels on a diamond" `Quick test_levels_diamond;
    Alcotest.test_case "dynamic top levels" `Quick test_dynamic_top_levels;
    Alcotest.test_case "granularity" `Quick test_granularity;
    Alcotest.test_case "granularity edge cases" `Quick
      test_granularity_edge_cases;
  ]
