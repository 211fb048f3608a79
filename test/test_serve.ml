(* Tests for the serve daemon stack: protocol totality, cancellation
   tokens, the content-addressed journal cache (including the torn tail
   a kill -9 leaves), admission control and deadlines in the server
   state machine, byte-identical cache servings (fresh vs cached vs
   resumed-after-crash), the differential check against direct library
   calls, and the fault-injection harness over several seeds. *)

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let ok_or_fail_rq = function
  | Ok rq -> rq
  | Error ((_ : Serve_protocol.error_class), m) ->
      Alcotest.failf "unexpected parse error: %s" m

(* the raw result bytes of an ok response frame: everything between
   [,"result":] and the final brace — exactly what [ok_response] spliced *)
let raw_result resp =
  let marker = {|,"result":|} in
  let mlen = String.length marker in
  let n = String.length resp in
  let rec find i =
    if i + mlen > n then Alcotest.failf "no result member in %s" resp
    else if String.sub resp i mlen = marker then i + mlen
    else find (i + 1)
  in
  let start = find 0 in
  String.sub resp start (n - start - 1)

let parse_resp line =
  match Serve_protocol.parse_response line with
  | Ok rs -> rs
  | Error e -> Alcotest.failf "non-protocol response %S: %s" line e

let expect_error cls line =
  let rs = parse_resp line in
  match rs.Serve_protocol.rs_error with
  | Some (c, _) when c = cls -> ()
  | Some (c, m) ->
      Alcotest.failf "expected %s, got %s: %s"
        (Serve_protocol.class_name cls)
        (Serve_protocol.class_name c)
        m
  | None -> Alcotest.failf "expected %s, got ok" (Serve_protocol.class_name cls)

(* -- protocol ------------------------------------------------------------ *)

let test_protocol_parse () =
  let parse line = Serve_protocol.parse_request ~max_frame:1024 line in
  let expect_class cls line =
    match parse line with
    | Error (c, _) when c = cls -> ()
    | Error (c, m) ->
        Alcotest.failf "%S: expected %s, got %s (%s)" line
          (Serve_protocol.class_name cls)
          (Serve_protocol.class_name c)
          m
    | Ok _ -> Alcotest.failf "%S: expected an error" line
  in
  expect_class Serve_protocol.Bad_request "not json";
  expect_class Serve_protocol.Bad_request "[1,2,3]";
  expect_class Serve_protocol.Bad_request "42";
  expect_class Serve_protocol.Bad_request {|{"params":{}}|} (* missing op *);
  expect_class Serve_protocol.Bad_request {|{"op":7}|};
  expect_class Serve_protocol.Bad_request {|{"op":"ping","v":99}|};
  expect_class Serve_protocol.Bad_request {|{"op":"ping","v":"x"}|};
  expect_class Serve_protocol.Bad_request {|{"op":"ping","params":[]}|};
  expect_class Serve_protocol.Bad_request {|{"op":"ping","deadline_ms":-5}|};
  expect_class Serve_protocol.Bad_request {|{"op":"ping","id":{"a":1}}|};
  expect_class Serve_protocol.Oversized
    ({|{"op":"|} ^ String.make 2048 'x' ^ {|"}|});
  let rq = ok_or_fail_rq (parse {|{"op":"ping","id":7}|}) in
  Alcotest.(check string) "op" "ping" rq.Serve_protocol.rq_op;
  Helpers.check_bool "id echoed" true (rq.Serve_protocol.rq_id = Json.Int 7);
  Helpers.check_bool "no deadline" true (rq.Serve_protocol.rq_deadline_ms = None)

let test_protocol_response_roundtrip () =
  let ok =
    Serve_protocol.ok_response ~id:(Json.Int 3) ~op:"schedule" ~cached:true
      ~elapsed_ms:1.5 {|{"x":1}|}
  in
  let rs = parse_resp ok in
  Helpers.check_bool "ok" true rs.Serve_protocol.rs_ok;
  Helpers.check_bool "cached" true rs.Serve_protocol.rs_cached;
  Helpers.check_bool "result" true
    (rs.Serve_protocol.rs_result = Some (Json.Obj [ ("x", Json.Int 1) ]));
  Alcotest.(check string) "raw result bytes" {|{"x":1}|} (raw_result ok);
  let err =
    Serve_protocol.error_response ~id:Json.Null Serve_protocol.Overloaded "full"
  in
  expect_error Serve_protocol.Overloaded err;
  Helpers.check_bool "overloaded retryable" true
    (Serve_protocol.retryable Serve_protocol.Overloaded);
  Helpers.check_bool "bad_request final" false
    (Serve_protocol.retryable Serve_protocol.Bad_request)

(* -- cancellation tokens -------------------------------------------------- *)

let test_cancel_tokens () =
  Helpers.check_bool "never" false (Cancel.cancelled Cancel.never);
  let t = Cancel.create () in
  Helpers.check_bool "fresh" false (Cancel.cancelled t);
  Cancel.cancel t;
  Helpers.check_bool "cancelled" true (Cancel.cancelled t);
  (match Cancel.check t with
  | () -> Alcotest.fail "check did not raise"
  | exception Cancel.Cancelled -> ());
  let past = Cancel.with_deadline (Unix.gettimeofday () -. 1.) in
  Helpers.check_bool "past deadline" true (Cancel.cancelled past);
  let future = Cancel.with_deadline (Unix.gettimeofday () +. 3600.) in
  Helpers.check_bool "future deadline" false (Cancel.cancelled future)

let test_cancel_threading () =
  (* an expired token aborts the evaluation loops with [Cancelled]
     instead of returning a perturbed result *)
  let _, costs = Helpers.random_instance ~seed:2 ~m:4 ~tasks:15 () in
  let sched = Caft.run ~epsilon:1 costs in
  let expired = Cancel.with_deadline (Unix.gettimeofday () -. 1.) in
  (match
     Monte_carlo.run ~seed:3 ~runs:20 ~cancel:expired ~crashes:1
       ~mode:Monte_carlo.From_start sched
   with
  | _ -> Alcotest.fail "monte carlo ignored the token"
  | exception Cancel.Cancelled -> ());
  let c = Replay.compile sched in
  let rows =
    Oracle.draw_rows (Rng.create 1) ~m:4 ~count:1 ~mode:Scenario.From_start
      ~runs:8
  in
  (match Replay.eval_batch ~cancel:expired c rows ~first:0 ~count:8 with
  | _ -> Alcotest.fail "eval_batch ignored the token"
  | exception Cancel.Cancelled -> ());
  (* a token that never trips leaves the report byte-identical *)
  let plain =
    Monte_carlo.run ~seed:3 ~runs:20 ~crashes:1 ~mode:Monte_carlo.From_start
      sched
  in
  let tokened =
    Monte_carlo.run ~seed:3 ~runs:20 ~cancel:(Cancel.create ()) ~crashes:1
      ~mode:Monte_carlo.From_start sched
  in
  Helpers.check_bool "token-free report identical" true (plain = tokened)

(* -- fingerprints ---------------------------------------------------------- *)

let test_fingerprint () =
  let h1 = Fingerprint.(to_hex (add_string (add_string empty "ab") "c")) in
  let h2 = Fingerprint.(to_hex (add_string (add_string empty "a") "bc")) in
  Helpers.check_bool "field boundaries hashed" true (h1 <> h2);
  Helpers.check_int "hex width" 16 (String.length h1);
  Alcotest.(check string)
    "deterministic" (Fingerprint.string "caft") (Fingerprint.string "caft");
  Helpers.check_bool "int vs float distinct" true
    Fingerprint.(to_hex (add_int empty 1) <> to_hex (add_float empty 1.))

(* The cache keys of four requests that together name every algorithm
   and model, pinned: a journal written by an earlier daemon must keep
   resuming with hits, so the canonical field sequence behind
   [Serve_ops.prepare]'s key cannot drift. *)
let test_pinned_cache_keys () =
  let ctx = Serve_ops.create () in
  List.iter
    (fun (op, params, want) ->
      let params =
        match Json.parse params with
        | Ok j -> j
        | Error e -> Alcotest.failf "bad params %s: %s" params e
      in
      match Serve_ops.prepare ctx ~op ~params with
      | Ok p -> Alcotest.(check string) (op ^ " key") want p.Serve_ops.p_key
      | Error (_, msg) -> Alcotest.failf "%s rejected: %s" op msg)
    [
      ("schedule", {|{}|}, "087a5839bc3f9646");
      ( "replay",
        {|{"algo":"ftsa","model":"multiport-2","crashed":[0]}|},
        "1cd9b18afe9d8245" );
      ( "montecarlo",
        {|{"algo":"ftbar","model":"macro","timed":true}|},
        "05eb3dd69157db4f" );
      ( "analyze",
        {|{"algo":"heft","model":"multiport-4","m":8}|},
        "44e05dede8fec74f" );
    ]

(* -- instance ---------------------------------------------------------------- *)

let test_instance () =
  (match Instance.make ~family:"nope" () with
  | Ok _ -> Alcotest.fail "unknown family accepted"
  | Error msg ->
      Helpers.check_bool "names the family" true
        (String.length msg >= 7 && String.sub msg 0 7 = "unknown"));
  (match Instance.make ~tasks:0 () with
  | Ok _ -> Alcotest.fail "zero tasks accepted"
  | Error _ -> ());
  (* one processor, or one task: no communication to rescale by *)
  List.iter
    (fun (tasks, m) ->
      match Instance.make ~tasks ~m () with
      | Ok _ ->
          Alcotest.failf "tasks=%d m=%d: instance without communication" tasks
            m
      | Error msg ->
          Alcotest.(check string)
            "no communication" Instance.no_communication msg)
    [ (10, 1); (1, 4) ];
  let dag, costs = ok_or_fail (Instance.make ~seed:5 ~tasks:12 ~m:3 ()) in
  Helpers.check_int "tasks" 12 (Dag.task_count dag);
  Helpers.check_int "procs" 3 (Platform.proc_count (Costs.platform costs));
  (* deterministic in the seed *)
  let _, costs2 = ok_or_fail (Instance.make ~seed:5 ~tasks:12 ~m:3 ()) in
  let s1 = Caft.run ~epsilon:1 costs and s2 = Caft.run ~epsilon:1 costs2 in
  Helpers.check_float "same instance, same schedule"
    (Schedule.latency_zero_crash s1)
    (Schedule.latency_zero_crash s2);
  (* [Instance.make]'s own defaults are the request vocabulary's *)
  let default_schedule (_, costs) =
    Schedule_io.to_string (Request.schedule Request.default costs)
  in
  Alcotest.(check string)
    "Instance.make () is the default request's instance"
    (default_schedule (ok_or_fail (Request.instance Request.default)))
    (default_schedule (ok_or_fail (Instance.make ())))

(* -- journal cache ------------------------------------------------------------ *)

let in_dir f =
  let dir = Filename.temp_file "ftsched_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_cache_journal () =
  in_dir @@ fun dir ->
  let path = Filename.concat dir "journal.db" in
  let c, rc = ok_or_fail (Serve_cache.journaled ~resume:false path) in
  Helpers.check_int "fresh journal empty" 0 rc.Serve_cache.rc_entries;
  Serve_cache.add c ~key:"k1" ~op:"schedule" {|{"a":1}|};
  Serve_cache.add c ~key:"k2" ~op:"replay" {|{"b":[1,2]}|};
  Serve_cache.add c ~key:"k1" ~op:"schedule" {|{"CHANGED":true}|};
  Alcotest.(check (option string))
    "first write wins"
    (Some {|{"a":1}|})
    (Serve_cache.find c ~key:"k1");
  (* starting over on an existing journal must be refused *)
  (match Serve_cache.journaled ~resume:false path with
  | Ok _ -> Alcotest.fail "clobbered an existing journal"
  | Error msg ->
      Helpers.check_bool "mentions --resume" true (contains msg "--resume"));
  (* simulate kill -9 mid-append: a torn half line at the tail *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc {|{"key":"k3","op":"schedule","result":{"c"|};
  close_out oc;
  let c2, rc2 = ok_or_fail (Serve_cache.journaled ~resume:true path) in
  Helpers.check_int "intact entries replayed" 2 rc2.Serve_cache.rc_entries;
  Helpers.check_int "torn tail skipped" 1 rc2.Serve_cache.rc_skipped;
  Alcotest.(check (option string))
    "bytes survive the restart"
    (Some {|{"a":1}|})
    (Serve_cache.find c2 ~key:"k1");
  Alcotest.(check (option string))
    "second entry too"
    (Some {|{"b":[1,2]}|})
    (Serve_cache.find c2 ~key:"k2");
  (* compaction drops the tail for good and keeps everything loadable *)
  Serve_cache.compact c2;
  Serve_cache.close c2;
  let c3, rc3 = ok_or_fail (Serve_cache.journaled ~resume:true path) in
  Helpers.check_int "compacted entries" 2 rc3.Serve_cache.rc_entries;
  Helpers.check_int "no torn lines left" 0 rc3.Serve_cache.rc_skipped;
  Serve_cache.close c3

(* -- server state machine ------------------------------------------------------ *)

let mk_server ?(queue = 64) ?(max_requests = None) () =
  Serve_server.create
    {
      Serve_server.queue_capacity = queue;
      max_frame = 1 lsl 16;
      default_deadline_ms = None;
      max_requests;
    }
    ~cache:(Serve_cache.in_memory ())

let admit_reply srv line =
  match Serve_server.admit srv ~client:() line with
  | Serve_server.Reply r | Serve_server.Reply_shutdown r -> r
  | Serve_server.Queued -> (
      match Serve_server.step srv with
      | Some ((), r) -> r
      | None -> Alcotest.fail "queued but queue empty")

let sched_frame ?(seed = 9) () =
  Printf.sprintf
    {|{"op":"schedule","params":{"seed":%d,"tasks":8,"m":3,"epsilon":1}}|} seed

let test_server_admission () =
  let srv = mk_server ~queue:1 () in
  (* capacity 1: the second fresh request in the same round sheds *)
  (match Serve_server.admit srv ~client:() (sched_frame ~seed:100 ()) with
  | Serve_server.Queued -> ()
  | _ -> Alcotest.fail "first request not queued");
  (match Serve_server.admit srv ~client:() (sched_frame ~seed:101 ()) with
  | Serve_server.Reply r -> expect_error Serve_protocol.Overloaded r
  | _ -> Alcotest.fail "second request not shed");
  Helpers.check_int "depth" 1 (Serve_server.queue_depth srv);
  (match Serve_server.step srv with
  | Some ((), r) ->
      Helpers.check_bool "ok" true (parse_resp r).Serve_protocol.rs_ok
  | None -> Alcotest.fail "nothing to step");
  (* the shed request succeeds on retry once the queue drained *)
  (match Serve_server.admit srv ~client:() (sched_frame ~seed:101 ()) with
  | Serve_server.Queued -> ()
  | _ -> Alcotest.fail "retry after shed not accepted");
  ignore (Serve_server.step srv)

let test_server_errors_and_deadline () =
  let srv = mk_server () in
  expect_error Serve_protocol.Bad_request
    (admit_reply srv {|{"op":"frobnicate"}|});
  expect_error Serve_protocol.Bad_request
    (admit_reply srv {|{"op":"schedule","params":{"task":40}}|});
  expect_error Serve_protocol.Bad_request
    (admit_reply srv {|{"op":"schedule","params":{"m":100000}}|});
  expect_error Serve_protocol.Deadline_exceeded
    (admit_reply srv
       {|{"op":"schedule","deadline_ms":0,"params":{"tasks":8,"m":3}}|});
  (* deadline expired while queued: admit with a tiny budget, stall, step *)
  (match
     Serve_server.admit srv ~client:()
       {|{"op":"schedule","deadline_ms":1,"params":{"seed":55,"tasks":8,"m":3}}|}
   with
  | Serve_server.Queued -> ()
  | _ -> Alcotest.fail "tiny-budget request not queued");
  Unix.sleepf 0.02;
  match Serve_server.step srv with
  | Some ((), r) -> expect_error Serve_protocol.Deadline_exceeded r
  | None -> Alcotest.fail "nothing to step"

let test_server_shutdown_and_max_requests () =
  let srv = mk_server () in
  Serve_server.begin_shutdown srv;
  expect_error Serve_protocol.Shutting_down (admit_reply srv (sched_frame ()));
  (* introspection survives the drain *)
  Helpers.check_bool "ping during drain" true
    (parse_resp (admit_reply srv {|{"op":"ping"}|})).Serve_protocol.rs_ok;
  let srv2 = mk_server ~max_requests:(Some 2) () in
  ignore (admit_reply srv2 {|{"op":"ping"}|});
  Helpers.check_bool "not draining yet" false (Serve_server.draining srv2);
  ignore (admit_reply srv2 {|{"op":"ping"}|});
  Helpers.check_bool "draining after max-requests" true
    (Serve_server.draining srv2)

(* -- byte-identical servings ----------------------------------------------------- *)

let test_cached_byte_identical () =
  let srv = mk_server () in
  let frame = sched_frame ~seed:77 () in
  let fresh = admit_reply srv frame in
  let hit = admit_reply srv frame in
  let rs_fresh = parse_resp fresh and rs_hit = parse_resp hit in
  Helpers.check_bool "first is fresh" false rs_fresh.Serve_protocol.rs_cached;
  Helpers.check_bool "second is cached" true rs_hit.Serve_protocol.rs_cached;
  Alcotest.(check string)
    "result bytes identical" (raw_result fresh) (raw_result hit);
  (* and identical to an independent daemon computing from scratch *)
  let srv2 = mk_server () in
  Alcotest.(check string)
    "fresh recomputation identical" (raw_result fresh)
    (raw_result (admit_reply srv2 frame))

let test_restart_byte_identical () =
  in_dir @@ fun dir ->
  let path = Filename.concat dir "journal.db" in
  let frame = sched_frame ~seed:31 () in
  let fresh =
    let cache, _ = ok_or_fail (Serve_cache.journaled ~resume:false path) in
    let srv = Serve_server.create Serve_server.default_config ~cache in
    (* no [finish]: the daemon dies right after replying, kill -9 style;
       the journal's per-entry flush is all that persists *)
    admit_reply srv frame
  in
  let cache, rc = ok_or_fail (Serve_cache.journaled ~resume:true path) in
  Helpers.check_int "journal survived the crash" 1 rc.Serve_cache.rc_entries;
  let srv = Serve_server.create Serve_server.default_config ~cache in
  let resumed = admit_reply srv frame in
  Helpers.check_bool "served from cache" true
    (parse_resp resumed).Serve_protocol.rs_cached;
  Alcotest.(check string)
    "bytes identical across restart" (raw_result fresh) (raw_result resumed)

(* -- differential: daemon vs direct library calls -------------------------------- *)

let test_differential_montecarlo () =
  let seed = 3 and tasks = 12 and m = 4 and epsilon = 1 and runs = 50 in
  let direct =
    let _, costs =
      ok_or_fail (Instance.make ~seed ~family:"random" ~tasks ~m ())
    in
    let sched = Caft.run ~model:Netstate.One_port ~seed ~epsilon costs in
    Monte_carlo.run ~seed:(seed + 1) ~runs ~crashes:1
      ~mode:Monte_carlo.From_start sched
  in
  let srv = mk_server () in
  let frame =
    Printf.sprintf
      {|{"op":"montecarlo","params":{"seed":%d,"tasks":%d,"m":%d,"epsilon":%d,"runs":%d,"crashes":1}}|}
      seed tasks m epsilon runs
  in
  let rs = parse_resp (admit_reply srv frame) in
  let result = Option.get rs.Serve_protocol.rs_result in
  let geti name =
    Option.get (Option.bind (Json.member name result) Json.to_int)
  in
  Helpers.check_int "runs" direct.Monte_carlo.runs (geti "runs");
  Helpers.check_int "completed" direct.Monte_carlo.completed (geti "completed");
  let rate =
    Option.get (Option.bind (Json.member "failure_rate" result) Json.to_float)
  in
  Helpers.check_float "failure rate" direct.Monte_carlo.failure_rate rate

(* -- fault harness ----------------------------------------------------------------- *)

let test_fault_harness () =
  List.iter
    (fun seed ->
      let r = Serve_faults.run ~frames:120 ~seed () in
      (match r.Serve_faults.fr_violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "seed %d: %d violations, first: %s" seed
            (List.length r.Serve_faults.fr_violations)
            v);
      Helpers.check_bool "saw cache hits" true (r.Serve_faults.fr_cache_hits > 0);
      Helpers.check_bool "saw shedding" true (r.Serve_faults.fr_shed > 0))
    [ 1; 5; 9 ];
  (* one attack pinned to its exact report *)
  Alcotest.(check string) "seed 42, 150 frames"
    "fault injection: 171 frames, 124 ok (21 cached), 47 errors (12 shed), 0 \
     violations"
    (Format.asprintf "%a" Serve_faults.pp
       (Serve_faults.run ~frames:150 ~seed:42 ()))

let suite =
  [
    Alcotest.test_case "protocol request parsing" `Quick test_protocol_parse;
    Alcotest.test_case "protocol response roundtrip" `Quick
      test_protocol_response_roundtrip;
    Alcotest.test_case "cancel tokens" `Quick test_cancel_tokens;
    Alcotest.test_case "cancellation threads the loops" `Quick
      test_cancel_threading;
    Alcotest.test_case "fingerprints" `Quick test_fingerprint;
    Alcotest.test_case "cache keys pinned" `Quick test_pinned_cache_keys;
    Alcotest.test_case "instance construction" `Quick test_instance;
    Alcotest.test_case "journal cache survives kill -9" `Quick
      test_cache_journal;
    Alcotest.test_case "admission control sheds" `Quick test_server_admission;
    Alcotest.test_case "error classes and deadlines" `Quick
      test_server_errors_and_deadline;
    Alcotest.test_case "shutdown and max-requests" `Quick
      test_server_shutdown_and_max_requests;
    Alcotest.test_case "cached serving byte-identical" `Quick
      test_cached_byte_identical;
    Alcotest.test_case "warm restart byte-identical" `Quick
      test_restart_byte_identical;
    Alcotest.test_case "differential vs direct library" `Quick
      test_differential_montecarlo;
    Alcotest.test_case "fault-injection harness" `Slow test_fault_harness;
  ]
