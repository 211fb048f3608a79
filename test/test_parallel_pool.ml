(* Unit tests for the workers of one [Parallel.map] call: ordering,
   exception semantics, and the per-worker telemetry that the obs
   profiler consumes. *)

let test_ordering () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let xs = List.init n Fun.id in
          let got = Parallel.map ~domains (fun x -> x * x) xs in
          Helpers.check_bool
            (Printf.sprintf "order domains=%d n=%d" domains n)
            true
            (got = List.map (fun x -> x * x) xs))
        [ 0; 1; 2; 7; 100 ])
    [ 1; 2; 4 ]

exception Boom of int

let test_exception () =
  (* one failing item: the exception surfaces after the workers drained
     the list *)
  let computed = Atomic.make 0 in
  (match
     Parallel.map ~domains:2
       (fun x ->
         if x = 3 then raise (Boom x);
         Atomic.incr computed;
         x)
       [ 0; 1; 2; 3; 4; 5 ]
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 3 -> ());
  (* surviving workers still computed the other items *)
  Helpers.check_int "others computed" 5 (Atomic.get computed)

let with_monitor f =
  let seen = ref [] in
  Parallel.set_monitor (Some (fun s -> seen := s :: !seen));
  Fun.protect
    ~finally:(fun () -> Parallel.set_monitor None)
    (fun () -> f (fun () -> List.rev !seen))

let one_report = function
  | [ s ] -> s
  | l -> Alcotest.failf "expected 1 stats report, got %d" (List.length l)

let test_monitor_stats () =
  (* the installed monitor sees every item exactly once, attributed to
     worker slots within the worker count *)
  with_monitor (fun seen ->
      ignore (Parallel.map ~domains:2 (fun x -> x * 2) (List.init 10 Fun.id));
      let s = one_report (seen ()) in
      Helpers.check_int "ms_items" 10 s.Parallel.ms_items;
      Helpers.check_int "ms_domains" 2 s.Parallel.ms_domains;
      let items =
        List.fold_left
          (fun a w -> a + w.Parallel.ws_items)
          0 s.Parallel.ms_workers
      in
      Helpers.check_int "worker items sum" 10 items;
      List.iter
        (fun w ->
          Helpers.check_bool "worker slot in range" true
            (w.Parallel.ws_worker >= 0 && w.Parallel.ws_worker < 2))
        s.Parallel.ms_workers);
  (* more domains than items: one worker per item *)
  with_monitor (fun seen ->
      ignore (Parallel.map ~domains:64 Fun.id [ 1; 2; 3 ]);
      Helpers.check_int "ms_domains = min domains n" 3
        (one_report (seen ())).Parallel.ms_domains);
  (* a single worker claims every item, then fails its last claim *)
  with_monitor (fun seen ->
      ignore (Parallel.map ~domains:1 Fun.id (List.init 7 Fun.id));
      match (one_report (seen ())).Parallel.ms_workers with
      | [ w ] ->
          Helpers.check_int "ws_steal_attempts = n + 1" 8
            w.Parallel.ws_steal_attempts
      | l -> Alcotest.failf "expected 1 worker, got %d" (List.length l));
  (* an empty map starts no worker and reports nothing *)
  with_monitor (fun seen ->
      ignore (Parallel.map ~domains:4 Fun.id []);
      Helpers.check_int "no report for an empty list" 0 (List.length (seen ())))

let suite =
  [
    Alcotest.test_case "result ordering" `Quick test_ordering;
    Alcotest.test_case "exception semantics" `Quick test_exception;
    Alcotest.test_case "monitor telemetry" `Quick test_monitor_stats;
  ]
