(* Unit tests for the workload generators. *)

let test_random_dag_respects_params () =
  let rng = Rng.create 12 in
  for _ = 1 to 20 do
    let p =
      {
        Random_dag.tasks_min = 30;
        tasks_max = 50;
        degree_min = 1;
        degree_max = 3;
        volume_min = 50.;
        volume_max = 150.;
      }
    in
    let g = Random_dag.generate rng p in
    let v = Dag.task_count g in
    Helpers.check_bool "task count in range" true (v >= 30 && v <= 50);
    for t = 0 to v - 1 do
      Helpers.check_bool "in-degree cap" true (Dag.in_degree g t <= 3)
    done;
    Dag.iter_edges
      (fun _ _ vol ->
        Helpers.check_bool "volume range" true (vol >= 50. && vol < 150.))
      g;
    (* acyclicity is enforced by construction: Dag.Builder.build succeeded *)
    Helpers.check_bool "has edges" true (Dag.edge_count g > 0)
  done

let test_random_dag_out_degrees () =
  (* most tasks (those with available targets) should have >= 1 successor *)
  let rng = Rng.create 5 in
  let g = Random_dag.generate_default rng in
  let v = Dag.task_count g in
  let with_out = ref 0 in
  for t = 0 to v - 1 do
    Helpers.check_bool "out-degree cap" true (Dag.out_degree g t <= 3);
    if Dag.out_degree g t > 0 then incr with_out
  done;
  Helpers.check_bool "most tasks have successors" true
    (float_of_int !with_out > 0.8 *. float_of_int v)

let test_random_dag_determinism () =
  let g1 = Random_dag.generate_default (Rng.create 7) in
  let g2 = Random_dag.generate_default (Rng.create 7) in
  Helpers.check_int "same task count" (Dag.task_count g1) (Dag.task_count g2);
  Helpers.check_int "same edge count" (Dag.edge_count g1) (Dag.edge_count g2);
  let edges g = Dag.fold_edges (fun u v w acc -> (u, v, w) :: acc) g [] in
  Helpers.check_bool "identical edges" true (edges g1 = edges g2)

let test_random_dag_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bad task range"
    (Invalid_argument "Random_dag.generate: bad task-count range") (fun () ->
      ignore
        (Random_dag.generate rng
           { Random_dag.default with Random_dag.tasks_min = 10; tasks_max = 5 }));
  Alcotest.check_raises "bad degree range"
    (Invalid_argument "Random_dag.generate: bad degree range") (fun () ->
      ignore
        (Random_dag.generate rng
           { Random_dag.default with Random_dag.degree_min = 4; degree_max = 2 }))

let test_families_shapes () =
  let fork = Families.fork 6 in
  Helpers.check_int "fork tasks" 7 (Dag.task_count fork);
  Helpers.check_bool "fork classified" true (Oracle_classify.is_fork fork);
  let join = Families.join 6 in
  Helpers.check_bool "join classified" true (Oracle_classify.is_join join);
  let chain = Families.chain 5 in
  Helpers.check_bool "chain classified" true (Oracle_classify.is_chain chain);
  let tree = Families.out_tree ~arity:2 ~depth:3 () in
  Helpers.check_int "binary tree nodes" 15 (Dag.task_count tree);
  Helpers.check_bool "tree is out-forest" true (Classify.is_out_forest tree);
  let fj = Families.fork_join 4 in
  Helpers.check_int "fork-join tasks" 6 (Dag.task_count fj);
  Helpers.check_bool "fork-join single exit" true (Oracle_classify.has_single_exit fj)

let test_families_stencil () =
  let s = Families.stencil_1d ~width:4 ~steps:3 () in
  Helpers.check_int "stencil tasks" 12 (Dag.task_count s);
  (* interior points have 3 preds, boundary 2 *)
  Helpers.check_int "interior in-degree" 3 (Dag.in_degree s 9);
  Helpers.check_int "boundary in-degree" 2 (Dag.in_degree s 8);
  Helpers.check_int "first row has no preds" 0 (Dag.in_degree s 0)

let test_families_gauss () =
  let g = Families.gaussian_elimination 5 in
  (* n-1 pivots + sum_{k=0}^{n-2} (n-1-k) updates = 4 + (4+3+2+1) = 14 *)
  Helpers.check_int "gauss tasks" 14 (Dag.task_count g);
  Helpers.check_bool "gauss acyclic and single entry" true
    (List.length (Dag.entries g) >= 1);
  (* the first pivot has no predecessor, the last update chain is deep *)
  Helpers.check_bool "depth grows" true (Dag.longest_path_length g >= 5);
  Alcotest.check_raises "n too small"
    (Invalid_argument "Families.gaussian_elimination") (fun () ->
      ignore (Families.gaussian_elimination 1))

let test_families_volumes () =
  let g = Families.fork ~volume:42. 3 in
  Dag.iter_edges (fun _ _ vol -> Helpers.check_float "custom volume" 42. vol) g

let test_platform_gen_ranges () =
  let rng = Rng.create 9 in
  let params = Platform_gen.default ~m:6 () in
  let plat = Platform_gen.platform rng params in
  Helpers.check_int "m" 6 (Platform.proc_count plat);
  List.iter
    (fun k ->
      List.iter
        (fun h ->
          if k <> h then
            Helpers.check_bool "delay in [0.5,1)" true
              (Platform.delay plat k h >= 0.5 && Platform.delay plat k h < 1.0))
        (Platform.procs plat))
    (Platform.procs plat)

let test_platform_gen_costs () =
  let rng = Rng.create 10 in
  let params = Platform_gen.default ~m:4 () in
  let dag = Families.fork 5 in
  let costs = Platform_gen.instance rng params dag in
  for t = 0 to Dag.task_count dag - 1 do
    for p = 0 to 3 do
      (* base in [50,150), factor in [0.5,1.5) *)
      Helpers.check_bool "cost in range" true
        (Costs.exec costs t p >= 25. && Costs.exec costs t p < 225.)
    done
  done

let test_instance_granularity () =
  let rng = Rng.create 11 in
  let params = Platform_gen.default ~m:8 () in
  let dag = Random_dag.generate_default rng in
  List.iter
    (fun g ->
      let costs = Platform_gen.instance rng ~granularity:g params dag in
      Alcotest.(check (float 1e-6)) "granularity hit exactly" g
        (Granularity.compute costs))
    [ 0.2; 1.0; 7.5 ]

let test_platform_gen_rejects () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "m < 1" (Invalid_argument "Platform_gen: m < 1")
    (fun () ->
      ignore (Platform_gen.platform rng { (Platform_gen.default ()) with Platform_gen.m = 0 }));
  Alcotest.check_raises "het out of range"
    (Invalid_argument "Platform_gen: heterogeneity must be in [0, 1)") (fun () ->
      ignore
        (Platform_gen.platform rng
           { (Platform_gen.default ()) with Platform_gen.heterogeneity = 1.0 }))

let suite =
  [
    Alcotest.test_case "random dag respects params" `Quick
      test_random_dag_respects_params;
    Alcotest.test_case "random dag out-degrees" `Quick test_random_dag_out_degrees;
    Alcotest.test_case "random dag determinism" `Quick test_random_dag_determinism;
    Alcotest.test_case "random dag rejects" `Quick test_random_dag_rejects;
    Alcotest.test_case "families shapes" `Quick test_families_shapes;
    Alcotest.test_case "stencil" `Quick test_families_stencil;
    Alcotest.test_case "gaussian elimination" `Quick test_families_gauss;
    Alcotest.test_case "family volumes" `Quick test_families_volumes;
    Alcotest.test_case "platform gen ranges" `Quick test_platform_gen_ranges;
    Alcotest.test_case "platform gen costs" `Quick test_platform_gen_costs;
    Alcotest.test_case "instance granularity" `Quick test_instance_granularity;
    Alcotest.test_case "platform gen rejects" `Quick test_platform_gen_rejects;
  ]
