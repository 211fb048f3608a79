type report = {
  fr_frames : int;
  fr_ok : int;
  fr_errors : int;
  fr_cache_hits : int;
  fr_shed : int;
  fr_violations : string list;
}

let trunc s = if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

(* -- adversarial frame generator ----------------------------------------
   Valid frames draw from a small grid of instance parameters so the
   stream revisits instances (exercising the cache and the schedule
   memo); hostile frames cover every parse stage. *)

let valid_frame rng =
  let op = Helpers.pick rng [| "schedule"; "replay"; "montecarlo"; "analyze" |] in
  let tasks = Helpers.pick rng [| 6; 9; 12; 15 |] in
  let m = Helpers.pick rng [| 2; 3; 4 |] in
  let epsilon = Rng.int rng (min 2 m) in
  let seed = 1 + Rng.int rng 2 in
  let algo = Helpers.pick rng [| "caft"; "ftsa"; "heft" |] in
  let base =
    [
      ("seed", Json.Int seed);
      ("tasks", Json.Int tasks);
      ("m", Json.Int m);
      ("epsilon", Json.Int epsilon);
      ("algo", Json.String algo);
    ]
  in
  let params =
    match op with
    | "replay" when Helpers.coin rng -> base @ [ ("crashed", Json.List [ Json.Int 0 ]) ]
    | "montecarlo" -> base @ [ ("runs", Json.Int (10 + Rng.int rng 30)) ]
    | _ -> base
  in
  Json.to_string
    (Json.Obj
       [
         ("v", Json.Int Serve_protocol.version);
         ("id", Json.Int (Rng.int rng 1000));
         ("op", Json.String op);
         ("params", Json.Obj params);
       ])

let hostile_frame rng max_frame =
  match Rng.int rng 8 with
  | 0 -> "!!! not json at all %%%"
  | 1 ->
      (* truncated JSON: chop a valid frame mid-object *)
      let f = valid_frame rng in
      String.sub f 0 (String.length f / 2)
  | 2 -> {|{"op":7}|}
  | 3 -> {|{"op":"schedule","params":[1,2,3]}|}
  | 4 -> {|{"v":99,"op":"ping"}|}
  | 5 -> {|{"op":"frobnicate"}|}
  | 6 -> {|{"op":"schedule","params":{"task":40}}|} (* typo'd field *)
  | _ ->
      (* oversized: blow past the frame limit *)
      {|{"op":"schedule","params":{"family":"|}
      ^ String.make (max_frame + 16) 'a'
      ^ {|"}}|}

let run ?(frames = 200) ~seed () =
  let rng = Rng.create seed in
  let cache = Serve_cache.in_memory () in
  let max_frame = 4096 in
  let cfg =
    {
      Serve_server.default_config with
      Serve_server.queue_capacity = 4;
      max_frame;
    }
  in
  let srv = Serve_server.create cfg ~cache in
  let violations = ref [] in
  let viol fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  let n_frames = ref 0
  and n_resp = ref 0
  and n_ok = ref 0
  and n_err = ref 0
  and n_hits = ref 0
  and n_shed = ref 0 in
  (* first rendered [result] per request line: later servings of the
     same frame must match byte-for-byte *)
  let results : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let sent_valid = ref [] in
  (* [track]: whether the result must be byte-stable across servings —
     true for the deterministic ops, false for [stats] (uptime and
     counters move by design) *)
  let classify ?(track = true) line resp =
    incr n_resp;
    match Serve_protocol.parse_response resp with
    | Error e -> viol "non-protocol response to %S: %s" (trunc line) e
    | Ok rs ->
        if rs.Serve_protocol.rs_ok then begin
          incr n_ok;
          if rs.Serve_protocol.rs_cached then incr n_hits;
          match rs.Serve_protocol.rs_result with
          | None -> viol "ok response without result for %S" (trunc line)
          | Some r -> (
              if track then
                let rendered = Json.to_string r in
                match Hashtbl.find_opt results line with
                | None -> Hashtbl.add results line rendered
                | Some prev ->
                    if prev <> rendered then
                      viol "result for %S changed between servings" (trunc line))
        end
        else begin
          incr n_err;
          match rs.Serve_protocol.rs_error with
          | None -> viol "error response without class for %S" (trunc line)
          | Some (Serve_protocol.Overloaded, _) -> incr n_shed
          | Some _ -> ()
        end
  in
  let inject ?track line =
    incr n_frames;
    match Serve_server.admit srv ~client:() line with
    | exception e ->
        viol "admit raised %s on %S" (Printexc.to_string e) (trunc line)
    | Serve_server.Reply resp | Serve_server.Reply_shutdown resp ->
        classify ?track line resp
    | Serve_server.Queued -> (
        match Serve_server.step srv with
        | exception e ->
            viol "step raised %s on %S" (Printexc.to_string e) (trunc line)
        | Some ((), resp) -> classify ?track line resp
        | None -> viol "frame %S queued but the queue was empty" (trunc line))
  in
  (* burst: distinct fresh requests, no stepping in between — the tail
     must shed with [overloaded], then the queue drains normally *)
  let burst counter =
    let fresh = ref [] in
    for k = 0 to (2 * cfg.Serve_server.queue_capacity) - 1 do
      let line =
        Json.to_string
          (Json.Obj
             [
               ("op", Json.String "schedule");
               ( "params",
                 Json.Obj
                   [
                     ("seed", Json.Int (1000 + (counter * 100) + k));
                     ("tasks", Json.Int 6);
                     ("m", Json.Int 2);
                   ] );
             ])
      in
      incr n_frames;
      match Serve_server.admit srv ~client:() line with
      | exception e ->
          viol "admit raised %s during burst" (Printexc.to_string e)
      | Serve_server.Reply resp | Serve_server.Reply_shutdown resp ->
          classify line resp
      | Serve_server.Queued -> fresh := line :: !fresh
    done;
    let queued = List.rev !fresh in
    if List.length queued > cfg.Serve_server.queue_capacity then
      viol "queue accepted %d requests over its capacity %d"
        (List.length queued) cfg.Serve_server.queue_capacity;
    (* the queue is FIFO, so drained responses pair with [queued] in order *)
    let rec drain = function
      | [] -> (
          match Serve_server.step srv with
          | Some _ -> viol "burst drain found more responses than requests"
          | None -> ())
      | line :: rest -> (
          match Serve_server.step srv with
          | exception e ->
              viol "step raised %s draining the burst" (Printexc.to_string e)
          | Some ((), resp) ->
              classify line resp;
              drain rest
          | None ->
              viol "burst queued %d requests but the queue drained early"
                (List.length queued))
    in
    drain queued
  in
  for i = 0 to frames - 1 do
    if i > 0 && i mod 40 = 39 then burst i
    else
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 ->
          let f = valid_frame rng in
          sent_valid := f :: !sent_valid;
          inject f
      | 4 | 5 ->
          (* re-send an earlier valid frame verbatim: must come back
             byte-identical, usually from cache *)
          inject
            (match !sent_valid with
            | [] -> valid_frame rng
            | sent -> Helpers.pick rng (Array.of_list sent))
      | 6 -> inject {|{"op":"ping"}|}
      | 7 -> inject ~track:false {|{"op":"stats"}|}
      | 8 ->
          (* expired before it starts: always deadline_exceeded *)
          inject {|{"op":"schedule","deadline_ms":0,"params":{"tasks":6,"m":2}}|}
      | _ -> inject (hostile_frame rng max_frame)
  done;
  if !n_resp <> !n_frames then
    viol "%d frames injected but %d responses observed" !n_frames !n_resp;
  (* the daemon must still be alive and coherent *)
  (match Serve_server.admit srv ~client:() {|{"op":"ping"}|} with
  | Serve_server.Reply resp -> (
      match Serve_protocol.parse_response resp with
      | Ok rs when rs.Serve_protocol.rs_ok -> ()
      | _ -> viol "daemon stopped answering ping after the fault run")
  | _ -> viol "ping was not answered inline after the fault run");
  {
    fr_frames = !n_frames;
    fr_ok = !n_ok;
    fr_errors = !n_err;
    fr_cache_hits = !n_hits;
    fr_shed = !n_shed;
    fr_violations = List.rev !violations;
  }

let pp ppf r =
  Format.fprintf ppf
    "fault injection: %d frames, %d ok (%d cached), %d errors (%d shed), %d \
     violations"
    r.fr_frames r.fr_ok r.fr_cache_hits r.fr_errors r.fr_shed
    (List.length r.fr_violations);
  List.iter (fun v -> Format.fprintf ppf "@.  violation: %s" v) r.fr_violations
