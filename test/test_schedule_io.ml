(* Robustness of the schedule text format against damaged input:
   truncation (a copy interrupted, a disk filled), corrupt directives,
   and — the case the streaming writer makes likely — a daemon or CLI
   killed mid-[--stream], leaving a file without its [end] terminator.
   Every failure must carry the offending line number so the user can
   look straight at the damage; none may be accepted silently. *)

let small_schedule () =
  let _, costs = Helpers.random_instance ~seed:4 ~m:3 ~tasks:10 () in
  Caft.run ~epsilon:1 costs

let expect_parse_error ?line text name =
  match Schedule_io.of_string text with
  | _ -> Alcotest.failf "%s: damaged input was accepted" name
  | exception Schedule_io.Parse_error { line = l; message } -> (
      match line with
      | None -> ()
      | Some want ->
          Alcotest.(check int)
            (Printf.sprintf "%s: error line (%s)" name message)
            want l)

let test_roundtrip () =
  let sched = small_schedule () in
  let text = Schedule_io.to_string sched in
  let reparsed = Schedule_io.of_string text in
  Alcotest.(check string)
    "serialize(parse(serialize)) is a fixed point" text
    (Schedule_io.to_string reparsed)

let test_truncated () =
  let sched = small_schedule () in
  let text = Schedule_io.to_string sched in
  let lines = String.split_on_char '\n' text in
  let lines = List.filter (fun l -> l <> "") lines in
  let total = List.length lines in
  (* drop the [end] terminator: the error points past the last line
     (the trailing newline counts as the final, empty line) *)
  let without_end =
    String.concat "\n" (List.filteri (fun i _ -> i < total - 1) lines) ^ "\n"
  in
  expect_parse_error ~line:total without_end "missing end";
  (* cut the file mid-body: still a parse error, never a silent partial *)
  let half =
    String.concat "\n" (List.filteri (fun i _ -> i < total / 2) lines) ^ "\n"
  in
  expect_parse_error half "truncated at half";
  (* empty and header-only inputs *)
  expect_parse_error "" "empty input";
  expect_parse_error "ftsched-schedule v1\n" "header only";
  expect_parse_error "not a schedule\n" "wrong magic"

let test_corrupt_directive () =
  let sched = small_schedule () in
  let text = Schedule_io.to_string sched in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  (* replace the 4th line (1-based) with garbage: the reported line
     number must name exactly that line *)
  let corrupt_at n repl =
    String.concat "\n"
      (List.mapi (fun i l -> if i = n - 1 then repl else l) lines)
    ^ "\n"
  in
  expect_parse_error ~line:4 (corrupt_at 4 "zorble 1 2 3") "unknown directive";
  (* damage a numeric field on a known line *)
  let damaged =
    List.mapi
      (fun i l ->
        if i >= 0 && String.length l > 5 && String.sub l 0 5 = "cost " then
          Some (i + 1, corrupt_at (i + 1) "cost 0 0 banana")
        else None)
      lines
    |> List.filter_map Fun.id
  in
  match damaged with
  | (lineno, text) :: _ -> expect_parse_error ~line:lineno text "bad number"
  | [] -> Alcotest.fail "schedule text had no cost line to damage"

let test_partial_stream_detected () =
  (* a --stream writer killed before [stream_close]: the file on disk
     has the header and some replicas but no [end]; of_file must refuse
     it rather than return a schedule missing tasks *)
  let sched = small_schedule () in
  let path = Filename.temp_file "ftsched_stream" ".fts" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w =
        Schedule_io.stream_writer ~algorithm:(Schedule.algorithm sched)
          ~epsilon:(Schedule.epsilon sched) ~model:(Schedule.model sched) ~path
          (Schedule.costs sched)
      in
      (* stream only the first replica, then "die" without stream_close *)
      (match Schedule.all_replicas sched with
      | r :: _ -> Schedule_io.stream_replica w r
      | [] -> Alcotest.fail "schedule has no replicas");
      (match Schedule_io.of_file path with
      | _ -> Alcotest.fail "partially-streamed file was accepted"
      | exception Schedule_io.Parse_error _ -> ());
      (* closing and finishing the stream makes the same file parse *)
      List.iter (Schedule_io.stream_replica w)
        (match Schedule.all_replicas sched with [] -> [] | _ :: tl -> tl);
      Schedule_io.stream_close w;
      Schedule_io.stream_close w (* idempotent *);
      let reparsed = Schedule_io.of_file path in
      Alcotest.(check string)
        "completed stream parses to the same bytes"
        (Schedule_io.to_string sched)
        (Schedule_io.to_string reparsed))

(* The non-empty lines of [small_schedule]'s file, the 1-based numbers
   of the lines of one directive, and the file with word [field] of each
   edited line (1-based number) set to a value. *)
let schedule_lines () =
  List.filter (fun l -> l <> "")
    (String.split_on_char '\n' (Schedule_io.to_string (small_schedule ())))

let numbered lines directive =
  List.filter_map
    (fun (i, l) ->
      if List.hd (String.split_on_char ' ' l) = directive then Some i else None)
    (List.mapi (fun i l -> (i + 1, l)) lines)

let edited lines edits =
  String.concat "\n"
    (List.mapi
       (fun i l ->
         match List.assoc_opt (i + 1) edits with
         | None -> l
         | Some (field, v) ->
             String.concat " "
               (List.mapi
                  (fun j w -> if j = field then v else w)
                  (String.split_on_char ' ' l)))
       lines)
  ^ "\n"

let test_out_of_range_ids () =
  (* a supply, task, delay or cost line naming a task or processor
     outside the instance is a parse error at that line — the first such
     line in the file — not a crash in a later analysis *)
  let lines = schedule_lines () in
  let first d = List.hd (numbered lines d) in
  let last d = List.hd (List.rev (numbered lines d)) in
  (* edits in file order: the first one is the line reported *)
  List.iter
    (fun (name, edits) ->
      expect_parse_error ~line:(fst (List.hd edits)) (edited lines edits) name)
    [
      ("message predecessor task", [ (first "message", (3, "10")) ]);
      ("message source processor", [ (first "message", (5, "3")) ]);
      ("negative source processor", [ (first "message", (5, "-1")) ]);
      ("message destination processor", [ (first "message", (8, "99")) ]);
      ("local predecessor task", [ (first "local", (3, "7000")) ]);
      ("task id", [ (last "task", (1, "10")) ]);
      ("negative task id", [ (first "task", (1, "-1")) ]);
      ("delay source processor", [ (first "delay", (1, "3")) ]);
      ("delay destination processor", [ (last "delay", (2, "7")) ]);
      ("cost task", [ (last "cost", (1, "12")) ]);
      ("cost processor", [ (first "cost", (2, "9")) ]);
      ( "first of two bad cost lines",
        [ (first "cost", (2, "9")); (last "cost", (1, "99")) ] );
    ]

let test_replica_shape () =
  (* what [Schedule.create] would reject, and an invalid delay, is a
     parse error at the offending line; a task short of a replica has no
     line of its own and is reported at [end] *)
  let lines = schedule_lines () in
  let replicas = numbered lines "replica" in
  let r0 = List.nth replicas 0 and r1 = List.nth replicas 1 in
  let proc_of n = List.nth (String.split_on_char ' ' (List.nth lines (n - 1))) 3 in
  let first_delay = List.hd (numbered lines "delay") in
  List.iter
    (fun (name, line, edits) -> expect_parse_error ~line (edited lines edits) name)
    [
      ("replica task", r1, [ (r1, (1, "10")) ]);
      ("negative replica task", r0, [ (r0, (1, "-1")) ]);
      ("replica processor", r0, [ (r0, (3, "3")) ]);
      ("replica index beyond epsilon", r1, [ (r1, (2, "2")) ]);
      ("negative replica index", r0, [ (r0, (2, "-1")) ]);
      (* task 0's second replica on its first replica's processor *)
      ("shared processor", r1, [ (r1, (3, proc_of r0)) ]);
      (* a second line for task 0's first replica *)
      ("duplicate replica", r1, [ (r1, (2, "0")) ]);
      ("negative delay", first_delay, [ (first_delay, (3, "-1")) ]);
      ("nan delay", first_delay, [ (first_delay, (3, "nan")) ]);
      ("diagonal delay", first_delay, [ (first_delay, (2, "0")) ]);
    ];
  let without_r1 = List.filteri (fun i _ -> i + 1 <> r1) lines in
  expect_parse_error ~line:(List.length without_r1)
    (String.concat "\n" without_r1 ^ "\n")
    "missing replica";
  (* a task count beyond the runtime's array limit has no line to blame
     but is still a parse error *)
  expect_parse_error ~line:0
    (edited lines [ (List.hd (numbered lines "tasks"), (1, "100000000000000000")) ])
    "task count beyond the array limit"

(* A schedule booked over a routed platform keeps its routes through a
   file: its [links] and [route] lines parse back to the same platform,
   the streaming writer emits the same lines, and damaged route lines are
   parse errors at their line.  A clique file has no such line. *)
let test_routed_roundtrip () =
  let dag, costs = Helpers.random_instance ~seed:4 ~m:4 ~tasks:10 () in
  let costs =
    Costs.create dag (Topology.platform (Topology.ring 4)) (Costs.exec costs)
  in
  let sched = Caft.run ~epsilon:1 costs in
  let text = Schedule_io.to_string sched in
  let reparsed = Schedule_io.of_string text in
  Alcotest.(check string) "routed text is a fixed point" text
    (Schedule_io.to_string reparsed);
  Helpers.check_bool "same platform" true
    (Schedule.platform reparsed = Schedule.platform sched);
  let path = Filename.temp_file "ftsched_routed" ".fts" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w =
        Schedule_io.stream_writer ~algorithm:(Schedule.algorithm sched)
          ~epsilon:1 ~model:(Schedule.model sched) ~path costs
      in
      List.iter (Schedule_io.stream_replica w) (Schedule.all_replicas sched);
      Schedule_io.stream_close w;
      Alcotest.(check string) "streamed routed file" text
        (In_channel.with_open_bin path In_channel.input_all));
  let is d l = String.starts_with ~prefix:(d ^ " ") l in
  Helpers.check_bool "clique file has no interconnect lines" false
    (List.exists
       (fun l -> is "links" l || is "route" l)
       (schedule_lines ()));
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  let links = List.hd (numbered lines "links") in
  let routes = numbered lines "route" in
  let r0 = List.hd routes and r1 = List.nth routes 1 in
  let without n = List.filteri (fun i _ -> i + 1 <> n) lines in
  let text_of lines = String.concat "\n" lines ^ "\n" in
  List.iter
    (fun (name, line, edits) ->
      expect_parse_error ~line (edited lines edits) name)
    [
      ("link id out of range", r1, [ (r1, (3, "8")) ]);
      ("negative link id", r0, [ (r0, (3, "-1")) ]);
      ("route source processor", r1, [ (r1, (1, "4")) ]);
      ("route to itself", r0, [ (r0, (2, "0")) ]);
      ("link count beyond m * m", links, [ (links, (1, "17")) ]);
    ];
  expect_parse_error ~line:links (text_of (without r1)) "missing route";
  expect_parse_error ~line:(r0 - 1) (text_of (without links))
    "route without a link count"

(* A bad [edge] line is a parse error at that line, whose message names
   the fault.  Each form inserts one line after the last edge line, built
   from the first edge line's endpoints [u -> v]. *)
let bad_edges =
  [
    ( "endpoint out of range",
      "bad edge: unknown dst",
      fun u _ -> Printf.sprintf "edge %d 99 1" u );
    ( "negative endpoint",
      "bad edge: unknown src",
      fun _ v -> Printf.sprintf "edge -1 %d 1" v );
    ( "self edge",
      "bad edge: self edge",
      fun u _ -> Printf.sprintf "edge %d %d 1" u u );
    ( "duplicate edge",
      "bad edge: duplicate edge",
      fun u v -> Printf.sprintf "edge %d %d 1" u v );
    ( "negative volume",
      "bad edge: negative volume",
      fun u v -> Printf.sprintf "edge %d %d -1" u v );
    ( "closes a cycle",
      "edge closes the cycle",
      fun u v -> Printf.sprintf "edge %d %d 1" v u );
  ]

let test_bad_edge (reason, bad) () =
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Schedule_io.to_string (small_schedule ())))
  in
  let is_edge l = String.starts_with ~prefix:"edge " l in
  let u, v =
    match String.split_on_char ' ' (List.find is_edge lines) with
    | [ _; u; v; _ ] -> (int_of_string u, int_of_string v)
    | _ -> Alcotest.fail "malformed edge line"
  in
  (* 0-based index of the last edge line; the inserted line follows it *)
  let last =
    List.fold_left max 0
      (List.mapi (fun i l -> if is_edge l then i else 0) lines)
  in
  let text =
    String.concat "\n"
      (List.concat
         (List.mapi
            (fun i l -> if i = last then [ l; bad u v ] else [ l ])
            lines))
    ^ "\n"
  in
  match Schedule_io.of_string text with
  | _ -> Alcotest.failf "%s: accepted" (bad u v)
  | exception Schedule_io.Parse_error { line; message } ->
      Alcotest.(check int) (bad u v ^ ": error line") (last + 2) line;
      Helpers.check_bool
        (Printf.sprintf "%s: message %S starts with %S" (bad u v) message
           reason)
        true
        (String.starts_with ~prefix:reason message)

let suite =
  [
    Alcotest.test_case "roundtrip fixed point" `Quick test_roundtrip;
    Alcotest.test_case "out-of-range supply ids rejected with line" `Quick
      test_out_of_range_ids;
    Alcotest.test_case "replica shape rejected with line" `Quick
      test_replica_shape;
    Alcotest.test_case "truncated input rejected with line" `Quick
      test_truncated;
    Alcotest.test_case "corrupt directive names its line" `Quick
      test_corrupt_directive;
    Alcotest.test_case "partial --stream output detected" `Quick
      test_partial_stream_detected;
    Alcotest.test_case "routed platform through a file" `Quick
      test_routed_roundtrip;
  ]
  @ List.map
      (fun (name, reason, bad) ->
        Alcotest.test_case ("edge: " ^ name) `Quick
          (test_bad_edge (reason, bad)))
      bad_edges
