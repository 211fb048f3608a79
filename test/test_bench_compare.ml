(* Bench_compare: regression detection semantics behind [ftsched benchdiff]. *)

let doc ~per_sec ~compiled_ns =
  Json.Obj
    [
      ("schema", Json.String "ftsched/bench/v1");
      ( "replay",
        Json.List
          [
            Json.Obj
              [
                ("m", Json.Int 50);
                ("rebuild_ns_per_scenario", Json.Float 1_000_000.);
                ("compiled_ns_per_scenario", Json.Float compiled_ns);
              ];
          ] );
      ( "replay_domains",
        Json.List
          [
            Json.Obj
              [
                ("domains", Json.Int 1);
                ("runs", Json.Int 2000);
                ("scenarios_per_sec", Json.Float per_sec);
              ];
          ] );
    ]

let diff ?(threshold = 20.) old_d new_d =
  Bench_compare.compare_docs ~threshold_pct:threshold old_d new_d

let test_no_change () =
  let d = doc ~per_sec:5000. ~compiled_ns:60_000. in
  let r = diff d d in
  Alcotest.(check int) "entries" 3 (List.length r.Bench_compare.c_entries);
  Alcotest.(check int) "no regressions" 0
    (List.length (Bench_compare.regressions r));
  Alcotest.(check int) "no improvements" 0
    (List.length (Bench_compare.improvements r))

let test_throughput_regression () =
  (* scenarios/s is higher-better: a 30% drop is a regression *)
  let old_d = doc ~per_sec:5000. ~compiled_ns:60_000. in
  let new_d = doc ~per_sec:3500. ~compiled_ns:60_000. in
  let r = diff old_d new_d in
  let regs = Bench_compare.regressions r in
  Alcotest.(check int) "one regression" 1 (List.length regs);
  let e = List.hd regs in
  Alcotest.(check bool) "it is the throughput row" true
    (String.length e.Bench_compare.e_key > 0
    && String.sub e.Bench_compare.e_key 0 14 = "replay_domains");
  Alcotest.(check bool) "signed change positive (= worse)" true
    (e.Bench_compare.e_change_pct > 29. && e.Bench_compare.e_change_pct < 31.)

let test_latency_regression () =
  (* ns/op is lower-better: +25% ns is a regression, -25% is improvement *)
  let old_d = doc ~per_sec:5000. ~compiled_ns:60_000. in
  let slower = doc ~per_sec:5000. ~compiled_ns:75_000. in
  let faster = doc ~per_sec:5000. ~compiled_ns:45_000. in
  let r_slow = diff old_d slower in
  Alcotest.(check int) "slower flags regression" 1
    (List.length (Bench_compare.regressions r_slow));
  let r_fast = diff old_d faster in
  Alcotest.(check int) "faster is no regression" 0
    (List.length (Bench_compare.regressions r_fast));
  Alcotest.(check int) "faster is an improvement" 1
    (List.length (Bench_compare.improvements r_fast))

let test_threshold_boundary () =
  let old_d = doc ~per_sec:5000. ~compiled_ns:100_000. in
  let new_d = doc ~per_sec:5000. ~compiled_ns:119_000. in
  (* +19% < 20% threshold *)
  Alcotest.(check int) "below threshold passes" 0
    (List.length (Bench_compare.regressions (diff old_d new_d)));
  let new_d = doc ~per_sec:5000. ~compiled_ns:120_000. in
  (* exactly 20% trips it (>= threshold) *)
  Alcotest.(check int) "at threshold fails" 1
    (List.length (Bench_compare.regressions (diff old_d new_d)));
  (* a tighter threshold flags the 19% case too *)
  Alcotest.(check int) "tighter threshold flags it" 1
    (List.length
       (Bench_compare.regressions
          (diff ~threshold:10. old_d (doc ~per_sec:5000. ~compiled_ns:119_000.))))

let test_disjoint_keys_ignored () =
  (* keys on only one side are reported but never compared *)
  let old_d = doc ~per_sec:5000. ~compiled_ns:60_000. in
  let new_d =
    Json.Obj
      [
        ("schema", Json.String "ftsched/bench/v1");
        ( "replay_domains",
          Json.List
            [
              Json.Obj
                [
                  ("domains", Json.Int 4);
                  ("scenarios_per_sec", Json.Float 100.);
                ];
            ] );
      ]
  in
  let r = diff old_d new_d in
  Alcotest.(check int) "no common keys" 0 (List.length r.Bench_compare.c_entries);
  Alcotest.(check int) "old-only keys listed" 3
    (List.length r.Bench_compare.c_only_old);
  Alcotest.(check int) "new-only keys listed" 1
    (List.length r.Bench_compare.c_only_new);
  Alcotest.(check int) "no regressions from disjoint docs" 0
    (List.length (Bench_compare.regressions r))

let test_vacuous_filter () =
  (* a gate whose filter matches no key on both sides compares nothing:
     that is a failure, not a pass *)
  let d = doc ~per_sec:5000. ~compiled_ns:60_000. in
  let gate filter new_d =
    Bench_compare.vacuous
      (Bench_compare.compare_docs ~filter ~threshold_pct:20. d new_d)
  in
  Alcotest.(check bool) "filter matching nothing" true (gate "batched" d);
  let no_domains =
    Json.Obj
      [
        ("schema", Json.String "ftsched/bench/v1");
        ("replay", Json.member "replay" d |> Option.get);
      ]
  in
  Alcotest.(check bool) "section dropped on the new side" true
    (gate "replay_domains" no_domains);
  (* old-only keys are fine as long as one key is common *)
  Alcotest.(check bool) "one common key suffices" false
    (gate "replay/" no_domains);
  Alcotest.(check bool) "unfiltered diff is never vacuous" false
    (Bench_compare.vacuous (diff d no_domains))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_summary_renders () =
  let old_d = doc ~per_sec:5000. ~compiled_ns:60_000. in
  let new_d = doc ~per_sec:3000. ~compiled_ns:60_000. in
  let r = diff old_d new_d in
  let s = Bench_compare.summary r in
  Alcotest.(check bool) "mentions the regression count" true
    (contains_sub s "1 regression")

let suite =
  [
    Alcotest.test_case "identical docs: no findings" `Quick test_no_change;
    Alcotest.test_case "throughput drop flagged (higher-better)" `Quick
      test_throughput_regression;
    Alcotest.test_case "latency rise flagged (lower-better)" `Quick
      test_latency_regression;
    Alcotest.test_case "threshold boundary" `Quick test_threshold_boundary;
    Alcotest.test_case "disjoint keys never compared" `Quick
      test_disjoint_keys_ignored;
    Alcotest.test_case "filter comparing nothing fails" `Quick
      test_vacuous_filter;
    Alcotest.test_case "summary line" `Quick test_summary_renders;
  ]
