(* Edge cases of the interval sweeps behind Validate: exported
   [depth_violations] / [overlap_violations] wrappers over
   Ftsched_util.Intervals. *)

let describe (name : string) = name
let locate (_ : string) = Validate.no_loc

let depth ~capacity intervals =
  Validate.depth_violations ~capacity ~check:"test" ~describe ~locate intervals

let test_zero_length_at_capacity () =
  (* two full-length intervals saturate capacity 2; a zero-length interval
     dropped right inside the busy window must not count as a third *)
  let intervals =
    [ (0., 10., "a"); (0., 10., "b"); (5., 5., "zero") ]
  in
  Helpers.check_int "zero-length ignored" 0
    (List.length (depth ~capacity:2 intervals));
  (* a third real interval does violate *)
  Helpers.check_int "third interval flagged" 1
    (List.length (depth ~capacity:2 ((5., 6., "c") :: intervals)));
  (* capacity 1: a zero-length interval inside a busy one is still fine *)
  Helpers.check_int "zero-length under capacity 1" 0
    (List.length (depth ~capacity:1 [ (0., 10., "a"); (4., 4., "zero") ]));
  (* only zero-length intervals can never violate any capacity *)
  Helpers.check_int "all zero-length" 0
    (List.length
       (depth ~capacity:1 [ (1., 1., "a"); (1., 1., "b"); (1., 1., "c") ]))

let test_touching_ties () =
  (* back-to-back intervals (finish = next start) never conflict, at any
     capacity, even when several swap at the same instant *)
  let chain = [ (0., 10., "a"); (10., 20., "b"); (20., 30., "c") ] in
  Helpers.check_int "chain capacity 1" 0 (List.length (depth ~capacity:1 chain));
  let swap_at_ten =
    [ (0., 10., "a"); (0., 10., "b"); (10., 20., "c"); (10., 20., "d") ]
  in
  Helpers.check_int "simultaneous swap at capacity 2" 0
    (List.length (depth ~capacity:2 swap_at_ten));
  (* identical intervals beyond capacity are flagged despite the tie *)
  Helpers.check_int "identical intervals over capacity" 1
    (List.length (depth ~capacity:2 [ (0., 5., "a"); (0., 5., "b"); (0., 5., "c") ]))

let test_capacity_exceeds_interval_count () =
  let intervals = [ (0., 10., "a"); (2., 8., "b"); (4., 6., "c") ] in
  Helpers.check_int "capacity above count" 0
    (List.length (depth ~capacity:4 intervals));
  Helpers.check_int "capacity equals count" 0
    (List.length (depth ~capacity:3 intervals));
  Helpers.check_int "empty list" 0 (List.length (depth ~capacity:3 []));
  (* same stack violates smaller capacities *)
  Helpers.check_bool "capacity 2 violated" true (depth ~capacity:2 intervals <> [])

let test_capacity_one_matches_overlap () =
  (* capacity 1 delegates to the frontier sweep: containment of several
     later intervals is caught against the same running interval *)
  let intervals = [ (0., 100., "outer"); (10., 20., "in1"); (30., 40., "in2") ] in
  let vs = depth ~capacity:1 intervals in
  Helpers.check_int "both contained flagged" 2 (List.length vs);
  let direct =
    Validate.overlap_violations ~check:"test" ~describe ~locate intervals
  in
  Helpers.check_bool "same as overlap_violations" true
    (List.map (fun (v : Validate.violation) -> v.Validate.detail) vs
    = List.map (fun (v : Validate.violation) -> v.Validate.detail) direct)

let suite =
  [
    Alcotest.test_case "zero-length at the capacity boundary" `Quick
      test_zero_length_at_capacity;
    Alcotest.test_case "simultaneous start/finish ties" `Quick
      test_touching_ties;
    Alcotest.test_case "capacity larger than interval count" `Quick
      test_capacity_exceeds_interval_count;
    Alcotest.test_case "capacity one equals overlap sweep" `Quick
      test_capacity_one_matches_overlap;
  ]
