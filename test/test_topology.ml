(* Unit tests for sparse interconnection topologies and their integration
   with the booking engine / validator / replay. *)

let test_ring_routes () =
  let t = Topology.ring 6 in
  Helpers.check_int "procs" 6 (Topology.proc_count t);
  Helpers.check_int "directed links" 12 (Topology.link_count t);
  Helpers.check_bool "adjacent route" true (Topology.route t 0 1 = [ 0; 1 ]);
  Helpers.check_float "adjacent delay" 1. (Topology.delay_between t 0 1);
  (* 0 -> 3 is 3 hops either way; tie broken deterministically *)
  Helpers.check_float "opposite delay" 3. (Topology.delay_between t 0 3);
  Helpers.check_int "ring diameter" 3 (Topology.diameter_hops t);
  (* going 0 -> 5 wraps backwards: 1 hop *)
  Helpers.check_float "wrap delay" 1. (Topology.delay_between t 0 5)

let test_star_routes () =
  let t = Topology.star 5 in
  Helpers.check_int "links" 8 (Topology.link_count t);
  Helpers.check_bool "leaf to leaf through hub" true
    (Topology.route t 1 4 = [ 1; 0; 4 ]);
  Helpers.check_float "two hops" 2. (Topology.delay_between t 1 4);
  Helpers.check_float "hub direct" 1. (Topology.delay_between t 0 3);
  Helpers.check_int "diameter" 2 (Topology.diameter_hops t)

let test_mesh_and_torus () =
  let mesh = Topology.mesh2d ~rows:3 ~cols:3 () in
  Helpers.check_int "mesh procs" 9 (Topology.proc_count mesh);
  (* corner to corner: manhattan distance 4 *)
  Helpers.check_float "mesh corner distance" 4. (Topology.delay_between mesh 0 8);
  Helpers.check_int "mesh diameter" 4 (Topology.diameter_hops mesh);
  let torus = Topology.torus2d ~rows:3 ~cols:3 () in
  (* wrap-around shortens the corner route *)
  Helpers.check_float "torus corner distance" 2.
    (Topology.delay_between torus 0 8);
  Helpers.check_int "torus diameter" 2 (Topology.diameter_hops torus)

let test_hypercube () =
  let t = Topology.hypercube 3 in
  Helpers.check_int "procs" 8 (Topology.proc_count t);
  Helpers.check_int "links" (2 * 12) (Topology.link_count t);
  Helpers.check_float "antipodal distance" 3. (Topology.delay_between t 0 7);
  Helpers.check_float "hamming distance" 2. (Topology.delay_between t 1 7)

let test_clique_matches_uniform () =
  let t = Topology.clique 4 in
  Helpers.check_float "direct" 1. (Topology.delay_between t 1 3);
  Helpers.check_int "diameter" 1 (Topology.diameter_hops t)

let test_custom_validation () =
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Topology.custom: disconnected topology") (fun () ->
      ignore (Topology.custom ~m:3 ~links:[ (0, 1, 1.) ]));
  Alcotest.check_raises "self cable"
    (Invalid_argument "Topology.custom: self cable") (fun () ->
      ignore (Topology.custom ~m:2 ~links:[ (0, 0, 1.) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.custom: duplicate cable") (fun () ->
      ignore (Topology.custom ~m:2 ~links:[ (0, 1, 1.); (1, 0, 1.) ]));
  Alcotest.check_raises "bad delay"
    (Invalid_argument "Topology.custom: non-positive delay") (fun () ->
      ignore (Topology.custom ~m:2 ~links:[ (0, 1, 0.) ]))

let test_routes_are_consistent () =
  let t = Topology.torus2d ~rows:3 ~cols:4 () in
  let m = Topology.proc_count t in
  for src = 0 to m - 1 do
    for dst = 0 to m - 1 do
      let path = Topology.route t src dst in
      (match path with
      | first :: _ -> Helpers.check_int "path starts at src" src first
      | [] -> Alcotest.fail "empty path");
      Helpers.check_int "path ends at dst" dst (List.nth path (List.length path - 1));
      (* delay equals hop count here (all cables delay 1) *)
      Helpers.check_float "delay = hops"
        (float_of_int (List.length path - 1))
        (Topology.delay_between t src dst)
    done
  done

let test_fabric_route_lengths () =
  let t = Topology.ring 5 in
  let platform = Topology.platform t in
  Helpers.check_int "phys count" (Topology.link_count t)
    (Platform.link_count platform);
  for src = 0 to 4 do
    for dst = 0 to 4 do
      if src <> dst then begin
        let links =
          List.init (Platform.route_length platform src dst)
            (Platform.route_link platform src dst)
        in
        Helpers.check_int "one link per hop"
          (List.length (Topology.route t src dst) - 1)
          (List.length links);
        List.iter
          (fun l ->
            Helpers.check_bool "valid id" true
              (l >= 0 && l < Platform.link_count platform))
          links
      end
    done
  done

let schedule_on topology ~epsilon ~seed =
  let rng = Rng.create seed in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 20; tasks_max = 20 }
  in
  let platform = Topology.platform topology in
  let costs =
    Costs.create dag platform (fun t _ ->
        50. +. (10. *. float_of_int (t mod 7)))
  in
  Caft.run ~seed ~epsilon costs

let test_caft_on_sparse_topologies () =
  List.iter
    (fun (name, topo) ->
      let sched = schedule_on topo ~epsilon:1 ~seed:3 in
      (match Validate.run sched with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: invalid schedule:\n%s" name
            (String.concat "\n"
               (List.map (fun v -> Format.asprintf "%a" Validate.pp_violation v) vs)));
      let out = Replay.fault_free sched in
      Helpers.check_bool (name ^ " replay completes") true out.Replay.completed;
      Helpers.check_float
        (name ^ " replay matches static")
        (Schedule.latency_zero_crash sched)
        out.Replay.latency;
      (* exhaustive single-crash tolerance on the sparse routes *)
      let m = Platform.proc_count (Schedule.platform sched) in
      List.iter
        (fun p ->
          let out = Replay.crash_from_start sched ~crashed:[ p ] in
          Helpers.check_bool
            (Printf.sprintf "%s survives crash of P%d" name p)
            true out.Replay.completed)
        (List.init m Fun.id))
    [
      ("ring", Topology.ring 8);
      ("star", Topology.star 8);
      ("mesh", Topology.mesh2d ~rows:2 ~cols:4 ());
      ("hypercube", Topology.hypercube 3);
    ]

let test_star_contention_slower_than_clique () =
  (* the hub serializes everything: the same workload must not be faster
     on the star than on the clique *)
  let rng = Rng.create 17 in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 25; tasks_max = 25 }
  in
  let costs_on topo =
    let platform = Topology.platform topo in
    Costs.create dag platform (fun t _ -> 20. +. float_of_int (t mod 5))
  in
  let clique = Topology.clique 6 in
  let star = Topology.star 6 in
  let sched_clique = Caft.run ~epsilon:1 (costs_on clique) in
  let sched_star = Caft.run ~epsilon:1 (costs_on star) in
  (* the scheduler is a heuristic, so strict dominance is not a theorem;
     but the star must not be significantly faster than the clique *)
  Helpers.check_bool "star not significantly faster than clique" true
    (Schedule.latency_zero_crash sched_star
    >= 0.85 *. Schedule.latency_zero_crash sched_clique)

let suite =
  [
    Alcotest.test_case "ring routes" `Quick test_ring_routes;
    Alcotest.test_case "star routes" `Quick test_star_routes;
    Alcotest.test_case "mesh and torus" `Quick test_mesh_and_torus;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "clique" `Quick test_clique_matches_uniform;
    Alcotest.test_case "custom validation" `Quick test_custom_validation;
    Alcotest.test_case "route consistency" `Quick test_routes_are_consistent;
    Alcotest.test_case "fabric route lengths" `Quick test_fabric_route_lengths;
    Alcotest.test_case "CAFT on sparse topologies" `Slow
      test_caft_on_sparse_topologies;
    Alcotest.test_case "star contention" `Quick
      test_star_contention_slower_than_clique;
  ]
