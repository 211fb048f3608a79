(* Unit tests for graph classification and DOT export. *)

let test_out_forest () =
  Helpers.check_bool "fork is out-forest" true
    (Classify.is_out_forest (Families.fork 5));
  Helpers.check_bool "out-tree is out-forest" true
    (Classify.is_out_forest (Families.out_tree ~arity:3 ~depth:2 ()));
  Helpers.check_bool "chain is out-forest" true
    (Classify.is_out_forest (Families.chain 4));
  Helpers.check_bool "diamond is not" false
    (Classify.is_out_forest (Helpers.diamond_dag ()));
  Helpers.check_bool "join is not out-forest" false
    (Classify.is_out_forest (Families.join 3))

let test_in_forest () =
  Helpers.check_bool "join is in-forest" true
    (Oracle_classify.is_in_forest (Families.join 5));
  Helpers.check_bool "in-tree is in-forest" true
    (Oracle_classify.is_in_forest (Families.in_tree ~arity:2 ~depth:3 ()));
  Helpers.check_bool "fork is not in-forest" false
    (Oracle_classify.is_in_forest (Families.fork 5))

let test_fork_join_chain () =
  Helpers.check_bool "fork" true (Oracle_classify.is_fork (Families.fork 6));
  Helpers.check_bool "join not fork" false (Oracle_classify.is_fork (Families.join 6));
  Helpers.check_bool "join" true (Oracle_classify.is_join (Families.join 6));
  Helpers.check_bool "chain" true (Oracle_classify.is_chain (Families.chain 6));
  Helpers.check_bool "fork not chain" false (Oracle_classify.is_chain (Families.fork 6));
  Helpers.check_bool "singleton chain" true (Oracle_classify.is_chain (Families.chain 1));
  (* two disconnected chains: not a chain *)
  let g = Dag.make ~n:4 ~edges:[ (0, 1, 1.); (2, 3, 1.) ] () in
  Helpers.check_bool "disconnected not chain" false (Oracle_classify.is_chain g)

let test_connected () =
  Helpers.check_bool "diamond connected" true
    (Oracle_classify.is_connected (Helpers.diamond_dag ()));
  let g = Dag.make ~n:4 ~edges:[ (0, 1, 1.) ] () in
  Helpers.check_bool "isolated tasks disconnect" false (Oracle_classify.is_connected g);
  Helpers.check_bool "empty graph connected" true
    (Oracle_classify.is_connected (Dag.make ~n:0 ~edges:[] ()))

let test_single_entry_exit () =
  Helpers.check_bool "fork single entry" true
    (Oracle_classify.has_single_entry (Families.fork 3));
  Helpers.check_bool "fork multi exit" false
    (Oracle_classify.has_single_exit (Families.fork 3));
  Helpers.check_bool "fork-join both" true
    (let g = Families.fork_join 3 in
     Oracle_classify.has_single_entry g && Oracle_classify.has_single_exit g)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_dot_output () =
  let g = Helpers.chain3 () in
  let dot = Dot.to_string ~graph_name:"test" g in
  Helpers.check_bool "digraph header" true (contains ~needle:"digraph \"test\"" dot);
  Helpers.check_bool "node present" true (contains ~needle:"n0 [label=\"t0\"]" dot);
  Helpers.check_bool "edge present" true (contains ~needle:"n0 -> n1" dot);
  Helpers.check_bool "volume label" true (contains ~needle:"label=\"1.0\"" dot);
  Helpers.check_bool "closes" true (contains ~needle:"}" dot)

let test_dot_escaping () =
  let g = Dag.make ~names:[| "a\"b" |] ~n:1 ~edges:[] () in
  let dot = Dot.to_string g in
  Helpers.check_bool "quotes escaped" true (contains ~needle:"a\\\"b" dot)

let test_dot_file () =
  let g = Helpers.chain3 () in
  let path = Filename.temp_file "ftsched" ".dot" in
  Dot.to_file path g;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  Helpers.check_bool "file non-empty" true (len > 20)

let suite =
  [
    Alcotest.test_case "out-forest recognition" `Quick test_out_forest;
    Alcotest.test_case "in-forest recognition" `Quick test_in_forest;
    Alcotest.test_case "fork/join/chain" `Quick test_fork_join_chain;
    Alcotest.test_case "connectivity" `Quick test_connected;
    Alcotest.test_case "single entry/exit" `Quick test_single_entry_exit;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    Alcotest.test_case "dot escaping" `Quick test_dot_escaping;
    Alcotest.test_case "dot to file" `Quick test_dot_file;
  ]
