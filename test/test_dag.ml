(* Unit tests for the DAG substrate. *)

let test_builder_basics () =
  let g = Helpers.diamond_dag () in
  Helpers.check_int "task count" 4 (Dag.task_count g);
  Helpers.check_int "edge count" 4 (Dag.edge_count g);
  Helpers.check_bool "entries" true (Dag.entries g = [ 0 ]);
  Helpers.check_bool "exits" true (Dag.exits g = [ 3 ]);
  Helpers.check_int "out degree" 2 (Dag.out_degree g 0);
  Helpers.check_int "in degree" 2 (Dag.in_degree g 3);
  Helpers.check_bool "volume" true (Dag.volume g ~src:0 ~dst:2 = Some 20.);
  Helpers.check_bool "no volume" true (Dag.volume g ~src:1 ~dst:2 = None);
  Helpers.check_bool "mem_edge" true (Dag.mem_edge g ~src:1 ~dst:3);
  Helpers.check_bool "default names" true (Dag.name g 2 = "t2")

let test_builder_rejects () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:1.;
  Alcotest.check_raises "duplicate edge"
    (Invalid_argument "Dag.Builder.add_edge: duplicate edge") (fun () ->
      Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:2.);
  Alcotest.check_raises "self edge"
    (Invalid_argument "Dag.Builder.add_edge: self edge") (fun () ->
      Dag.Builder.add_edge b ~src:t0 ~dst:t0 ~volume:1.);
  Alcotest.check_raises "unknown dst"
    (Invalid_argument "Dag.Builder.add_edge: unknown dst") (fun () ->
      Dag.Builder.add_edge b ~src:t0 ~dst:99 ~volume:1.);
  Alcotest.check_raises "negative volume"
    (Invalid_argument "Dag.Builder.add_edge: negative volume") (fun () ->
      Dag.Builder.add_edge b ~src:t1 ~dst:t0 ~volume:(-1.))

let test_cycle_detection () =
  let raised = ref false in
  (try
     ignore (Dag.make ~n:3 ~edges:[ (0, 1, 1.); (1, 2, 1.); (2, 0, 1.) ] ())
   with Dag.Cycle cycle ->
     raised := true;
     Helpers.check_int "cycle length" 3 (List.length cycle));
  Helpers.check_bool "cycle raised" true !raised

let test_topological_order () =
  let g = Helpers.diamond_dag () in
  let order = Dag.topological_order g in
  let pos = Array.make 4 0 in
  Array.iteri (fun i t -> pos.(t) <- i) order;
  Dag.iter_edges (fun u v _ ->
      Helpers.check_bool "topo respects edges" true (pos.(u) < pos.(v))) g;
  let rev = Dag.reverse_topological_order g in
  Helpers.check_bool "reverse topo" true
    (Array.to_list rev = List.rev (Array.to_list order))

let test_fold_edges () =
  let g = Helpers.diamond_dag () in
  let total = Dag.fold_edges (fun _ _ vol acc -> acc +. vol) g 0. in
  Helpers.check_float "edge volumes sum" 100. total;
  let count = Dag.fold_tasks (fun _ acc -> acc + 1) g 0 in
  Helpers.check_int "fold_tasks" 4 count

let test_longest_path () =
  Helpers.check_int "diamond longest path" 3
    (Dag.longest_path_length (Helpers.diamond_dag ()));
  Helpers.check_int "chain longest path" 5
    (Dag.longest_path_length (Families.chain 5));
  Helpers.check_int "fork longest path" 2
    (Dag.longest_path_length (Families.fork 6));
  Helpers.check_int "empty graph" 0
    (Dag.longest_path_length (Dag.make ~n:0 ~edges:[] ()))

let test_transitive_closure () =
  let g = Helpers.diamond_dag () in
  let reach = Dag.transitive_closure g in
  Helpers.check_bool "0 reaches 3" true reach.(0).(3);
  Helpers.check_bool "1 not reaches 2" false reach.(1).(2);
  Helpers.check_bool "diagonal" true reach.(2).(2);
  Helpers.check_bool "no back reach" false reach.(3).(0)

let test_width () =
  Helpers.check_int "diamond width" 2 (Dag.width (Helpers.diamond_dag ()));
  Helpers.check_int "chain width" 1 (Dag.width (Families.chain 7));
  Helpers.check_int "fork width" 9 (Dag.width (Families.fork 9));
  (* two independent chains of 3: width 2 *)
  let g = Dag.make ~n:6 ~edges:[ (0, 1, 1.); (1, 2, 1.); (3, 4, 1.); (4, 5, 1.) ] () in
  Helpers.check_int "two chains width" 2 (Dag.width g);
  (* antichain is not simply the largest level: N-shaped poset
     0 -> 2, 0 -> 3, 1 -> 3: width 2 *)
  let n_poset = Dag.make ~n:4 ~edges:[ (0, 2, 1.); (0, 3, 1.); (1, 3, 1.) ] () in
  Helpers.check_int "N poset width" 2 (Dag.width n_poset)

let test_width_random_sanity () =
  (* width is at least the entry count and at most v *)
  let rng = Rng.create 5 in
  for _ = 1 to 10 do
    let g =
      Random_dag.generate rng
        { Random_dag.default with Random_dag.tasks_min = 20; tasks_max = 30 }
    in
    let w = Dag.width g in
    Helpers.check_bool "width bounds" true
      (w >= List.length (Dag.entries g) && w <= Dag.task_count g)
  done

let test_succs_preds_consistency () =
  let rng = Rng.create 9 in
  let g = Random_dag.generate_default rng in
  Dag.iter_edges
    (fun u v vol ->
      Helpers.check_bool "succ listed in preds" true
        (Array.exists (fun (p, w) -> p = u && w = vol) (Dag.preds g v)))
    g;
  let via_succs = Dag.fold_tasks (fun t acc -> acc + Dag.out_degree g t) g 0 in
  let via_preds = Dag.fold_tasks (fun t acc -> acc + Dag.in_degree g t) g 0 in
  Helpers.check_int "degree sums equal" via_succs via_preds;
  Helpers.check_int "degree sums = e" (Dag.edge_count g) via_succs

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basics;
    Alcotest.test_case "builder rejects bad edges" `Quick test_builder_rejects;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "topological order" `Quick test_topological_order;
    Alcotest.test_case "fold_edges / fold_tasks" `Quick test_fold_edges;
    Alcotest.test_case "longest path" `Quick test_longest_path;
    Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
    Alcotest.test_case "width (max antichain)" `Quick test_width;
    Alcotest.test_case "width random sanity" `Quick test_width_random_sanity;
    Alcotest.test_case "succs/preds consistency" `Quick
      test_succs_preds_consistency;
  ]
