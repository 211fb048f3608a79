(* Edge cases across modules that the main suites do not reach. *)

let test_schedule_io_rejects_spaced_names () =
  (* the text format is word-based: a task name with spaces is read only
     in its quoted form, the one the writer prints, and rejected bare *)
  let text name =
    "ftsched-schedule v1\nepsilon 0\ntasks 1\nprocs 1\ntask 0 " ^ name
    ^ "\ncost 0 0 1\nreplica 0 0 0 0 1\nend\n"
  in
  (match Schedule_io.of_string (text "two words") with
  | exception Schedule_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "spaced name accepted");
  let quoted = Schedule_io.of_string (text {|"two words"|}) in
  Helpers.check_bool "quoted name read" true
    (Dag.name (Schedule.dag quoted) 0 = "two words");
  (match Schedule_io.of_string (text {|"two words" x|}) with
  | exception Schedule_io.Parse_error _ -> ()
  | _ -> Alcotest.fail "text after a quoted name accepted");
  (* and the exporter never produces one: generated names are word-safe *)
  let _, costs = Helpers.random_instance ~seed:71 () in
  let sched = Heft.run costs in
  let dag = Schedule.dag sched in
  for t = 0 to Dag.task_count dag - 1 do
    Helpers.check_bool "no spaces in generated names" false
      (String.contains (Dag.name dag t) ' ')
  done

let test_parallel_chunk_boundaries () =
  let f x = x * 3 in
  List.iter
    (fun (domains, n) ->
      let xs = List.init n Fun.id in
      Helpers.check_bool
        (Printf.sprintf "domains=%d n=%d" domains n)
        true
        (Parallel.map ~domains f xs = List.map f xs))
    [ (4, 4); (4, 5); (4, 3); (2, 7); (7, 2); (1, 0); (3, 1) ]

let test_gantt_svg_dimensions () =
  let _, costs = Helpers.random_instance ~seed:72 ~m:4 () in
  let sched = Heft.run costs in
  let svg = Gantt.to_svg sched in
  let contains needle =
    let nl = String.length needle and hl = String.length svg in
    let rec go i = i + nl <= hl && (String.sub svg i nl = needle || go (i + 1)) in
    go 0
  in
  Helpers.check_bool "width" true (contains "width=\"900\"");
  (* 4 processors x 28px + margins *)
  Helpers.check_bool "height from rows" true (contains "height=\"172\"");
  Helpers.check_bool "lane labels" true (contains ">P3</text>")

let test_monte_carlo_empty_latency () =
  (* crashing every processor from the start: nothing ever completes *)
  let dag = Families.chain 3 in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs dag platform in
  let sched = Caft.run ~epsilon:1 costs in
  let r =
    Monte_carlo.run ~runs:10 ~crashes:3 ~mode:Monte_carlo.From_start sched
  in
  Helpers.check_int "no run completes" 0 r.Monte_carlo.completed;
  Helpers.check_bool "no latency summary" true (r.Monte_carlo.latency = None);
  Helpers.check_bool "worst slowdown nan" true
    (Float.is_nan r.Monte_carlo.worst_slowdown);
  let s = Format.asprintf "%a" Monte_carlo.pp r in
  Helpers.check_bool "pp handles the empty case" true (String.length s > 10)

let test_explain_idle_gap () =
  (* a replica whose start is neither a supply arrival nor the processor
     release (idle gap: entry task booked after an artificial delay) —
     Explain must still produce a chain ending at the latency *)
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 1000.) ] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Costs.of_matrix dag platform [| [| 10.; 10. |]; [| 10.; 10. |] |] in
  let sched = Heft.run costs in
  let steps = Explain.critical_chain sched in
  Helpers.check_bool "chain exists" true (steps <> []);
  let last = List.nth steps (List.length steps - 1) in
  Helpers.check_float "reaches the latency"
    (Schedule.latency_zero_crash sched)
    last.Explain.finish

let test_bitset_word_boundary () =
  (* exactly 8 and 64 universes: boundary words *)
  List.iter
    (fun n ->
      let s = Bitset.create n in
      Bitset.add s (n - 1);
      Helpers.check_bool "last bit" true (Bitset.mem s (n - 1));
      Helpers.check_int "cardinal" 1 (Bitset.cardinal s);
      Bitset.clear s;
      Helpers.check_int "empty again" 0 (Bitset.cardinal s))
    [ 1; 8; 9; 63; 64; 65 ]

let test_topology_two_nodes () =
  let t = Topology.ring 2 in
  Helpers.check_int "two links" 2 (Topology.link_count t);
  Helpers.check_float "unit delay" 1. (Topology.delay_between t 0 1);
  Helpers.check_int "route has one link" 1
    (Platform.route_length (Topology.platform t) 0 1)

let suite =
  [
    Alcotest.test_case "schedule_io rejects spaced names" `Quick
      test_schedule_io_rejects_spaced_names;
    Alcotest.test_case "parallel chunk boundaries" `Quick
      test_parallel_chunk_boundaries;
    Alcotest.test_case "gantt svg dimensions" `Quick test_gantt_svg_dimensions;
    Alcotest.test_case "monte-carlo with zero survivors" `Quick
      test_monte_carlo_empty_latency;
    Alcotest.test_case "explain across idle gaps" `Quick test_explain_idle_gap;
    Alcotest.test_case "bitset word boundaries" `Quick test_bitset_word_boundary;
    Alcotest.test_case "two-node topology" `Quick test_topology_two_nodes;
  ]
