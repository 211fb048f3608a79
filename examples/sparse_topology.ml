(* Fault-tolerant scheduling on sparse interconnects — the extension the
   paper sketches in its conclusion: "each processor is provided with a
   routing table ... at most one message can circulate on a given link at
   a given time-step, so we need to schedule long-distance communications
   carefully."

   The same workload is scheduled on a clique, a hypercube, a torus, a
   ring and a star over the same 8 processors; the table shows how the
   network diameter and shared links stretch the latency, and that CAFT's
   fault tolerance is preserved on every fabric (verified by exhaustive
   crash replay on the routed network).

   Run with:  dune exec examples/sparse_topology.exe *)

let () =
  let rng = Rng.create 42 in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 40; tasks_max = 40 }
  in
  Printf.printf "Workload: %d tasks, %d edges; epsilon = 1, 8 processors\n\n"
    (Dag.task_count dag) (Dag.edge_count dag);

  let topologies =
    [
      ("clique", Topology.clique 8);
      ("hypercube", Topology.hypercube 3);
      ("torus 2x4", Topology.torus2d ~rows:2 ~cols:4 ());
      ("ring", Topology.ring 8);
      ("star", Topology.star 8);
    ]
  in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "topology"; "cables"; "diameter"; "latency"; "messages"; "1-crash ok" ]
  in
  List.iter
    (fun (name, topo) ->
      let platform = Topology.platform topo in
      (* identical execution costs on every topology: only the network
         changes *)
      let costs =
        Costs.create dag platform (fun task _ ->
            80. +. (7. *. float_of_int (task mod 9)))
      in
      let sched = Caft.run ~epsilon:1 costs in
      Validate.check_exn sched;
      let all_crashes_ok =
        List.for_all
          (fun p ->
            (Replay.crash_from_start sched ~crashed:[ p ]).Replay.completed)
          (Platform.procs platform)
      in
      Text_table.add_row t
        [
          name;
          string_of_int (Topology.link_count topo / 2);
          string_of_int (Topology.diameter_hops topo);
          Text_table.float_cell (Schedule.latency_zero_crash sched);
          string_of_int (Schedule.message_count sched);
          (if all_crashes_ok then "yes" else "NO");
        ])
    topologies;
  Text_table.print t;

  (* Show one route for flavour. *)
  let ring = List.assoc "ring" topologies in
  Printf.printf
    "\nOn the ring, a message from P0 to P4 travels %s (delay %.0f), and\n\
     while it does, all four cables on the route are busy.\n"
    (String.concat " -> "
       (List.map (fun p -> "P" ^ string_of_int p) (Topology.route ring 0 4)))
    (Topology.delay_between ring 0 4)
