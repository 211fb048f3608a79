type config = {
  queue_capacity : int;
  max_frame : int;
  default_deadline_ms : float option;
  max_requests : int option;
}

let default_config =
  {
    queue_capacity = 64;
    max_frame = 1 lsl 20;
    default_deadline_ms = None;
    max_requests = None;
  }

(* Registered once at module init; recording is a no-op unless the
   process enabled metrics (FTSCHED_METRICS / --metrics).  The [stats]
   op reads the server's own always-on counters instead, so protocol
   introspection does not depend on the observability switch. *)
let m_requests = Obs.Metrics.counter ~help:"frames admitted" "serve.requests"
let m_ok = Obs.Metrics.counter ~help:"ok responses" "serve.ok"
let m_errors = Obs.Metrics.counter ~help:"error responses" "serve.errors"
let m_shed = Obs.Metrics.counter ~help:"requests shed (queue full)" "serve.shed"

let m_deadline =
  Obs.Metrics.counter ~help:"requests past their budget"
    "serve.deadline_expired"

let m_cache_hits =
  Obs.Metrics.counter ~help:"results served from cache" "serve.cache_hits"

let m_cache_misses =
  Obs.Metrics.counter ~help:"results computed fresh" "serve.cache_misses"

let m_latency =
  Obs.Metrics.histogram ~help:"request latency (ms), fresh evaluations"
    "serve.latency_ms"

let m_queue =
  Obs.Metrics.gauge ~help:"admission queue depth" "serve.queue_depth"

type 'a item = {
  it_client : 'a;
  it_id : Json.t;
  it_prepared : Serve_ops.prepared;
  it_deadline : float; (* absolute epoch seconds; [infinity] = none *)
  it_admitted : float;
}

type 'a t = {
  cfg : config;
  cache : Serve_cache.t;
  ops : Serve_ops.ctx;
  queue : 'a item Queue.t;
  started : float;
  mutable n_frames : int;
  mutable n_ok : int;
  mutable n_err : int;
  mutable n_shed : int;
  mutable n_deadline : int;
  mutable s_draining : bool;
}

let create cfg ~cache =
  {
    cfg;
    cache;
    ops = Serve_ops.create ();
    queue = Queue.create ();
    started = Unix.gettimeofday ();
    n_frames = 0;
    n_ok = 0;
    n_err = 0;
    n_shed = 0;
    n_deadline = 0;
    s_draining = false;
  }

let queue_depth t = Queue.length t.queue
let begin_shutdown t = t.s_draining <- true
let draining t = t.s_draining
(* Compact and close the cache journal — the last act before exit. *)
let finish t = Serve_cache.close t.cache

type 'a admitted =
  | Reply of string
  | Queued
  | Reply_shutdown of string

let error_reply t ~id cls msg =
  t.n_err <- t.n_err + 1;
  Obs.Metrics.incr m_errors;
  (match cls with
  | Serve_protocol.Overloaded ->
      t.n_shed <- t.n_shed + 1;
      Obs.Metrics.incr m_shed
  | Serve_protocol.Deadline_exceeded ->
      t.n_deadline <- t.n_deadline + 1;
      Obs.Metrics.incr m_deadline
  | _ -> ());
  Serve_protocol.error_response ~id cls msg

let ok_reply t ~id ~op ~cached ~elapsed_ms result =
  t.n_ok <- t.n_ok + 1;
  Obs.Metrics.incr m_ok;
  Serve_protocol.ok_response ~id ~op ~cached ~elapsed_ms result

(* The [stats] op's result document: queue depth and capacity,
   request/shed/deadline/error counters, cache entries + hit rate, uptime. *)
let stats_response t =
  let hits = Serve_cache.hits t.cache and misses = Serve_cache.misses t.cache in
  let looked = hits + misses in
  Json.to_string
    (Json.Obj
       [
         ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
         ("queue_depth", Json.Int (Queue.length t.queue));
         ("queue_capacity", Json.Int t.cfg.queue_capacity);
         ("draining", Json.Bool t.s_draining);
         ("requests", Json.Int t.n_frames);
         ("ok", Json.Int t.n_ok);
         ("errors", Json.Int t.n_err);
         ("shed", Json.Int t.n_shed);
         ("deadline_expired", Json.Int t.n_deadline);
         ( "cache",
           Json.Obj
             [
               ("entries", Json.Int (Serve_cache.entries t.cache));
               ("hits", Json.Int hits);
               ("misses", Json.Int misses);
               ( "hit_rate",
                 if looked = 0 then Json.Null
                 else Json.Float (float_of_int hits /. float_of_int looked) );
             ] );
       ])

let ping_response () =
  Json.to_string
    (Json.Obj
       [
         ("pong", Json.Bool true);
         ("version", Json.Int Serve_protocol.version);
         ( "ops",
           Json.List
             (List.map
                (fun o -> Json.String o)
                (Serve_ops.ops @ [ "ping"; "stats"; "shutdown" ])) );
       ])

let admit t ~client line =
  t.n_frames <- t.n_frames + 1;
  Obs.Metrics.incr m_requests;
  let t0 = Unix.gettimeofday () in
  let result =
    match Serve_protocol.parse_request ~max_frame:t.cfg.max_frame line with
    | Error (cls, msg) -> Reply (error_reply t ~id:Json.Null cls msg)
    | Ok rq -> (
        let id = rq.Serve_protocol.rq_id in
        match rq.Serve_protocol.rq_op with
        (* introspection stays available while draining *)
        | "ping" ->
            Reply
              (ok_reply t ~id ~op:"ping" ~cached:false ~elapsed_ms:0.
                 (ping_response ()))
        | "stats" ->
            Reply
              (ok_reply t ~id ~op:"stats" ~cached:false ~elapsed_ms:0.
                 (stats_response t))
        | "shutdown" ->
            t.s_draining <- true;
            Reply_shutdown
              (ok_reply t ~id ~op:"shutdown" ~cached:false ~elapsed_ms:0.
                 "{\"draining\":true}")
        | op ->
            if t.s_draining then
              Reply
                (error_reply t ~id Serve_protocol.Shutting_down
                   "daemon is draining; no new work accepted")
            else (
              match
                Serve_ops.prepare t.ops ~op ~params:rq.Serve_protocol.rq_params
              with
              | Error (cls, msg) -> Reply (error_reply t ~id cls msg)
              | Ok p -> (
                  let deadline_ms =
                    match rq.Serve_protocol.rq_deadline_ms with
                    | Some _ as d -> d
                    | None -> t.cfg.default_deadline_ms
                  in
                  if deadline_ms = Some 0. then
                    (* a zero budget is already expired — deterministic,
                       checked before the cache so tests see the same
                       answer warm or cold *)
                    Reply
                      (error_reply t ~id Serve_protocol.Deadline_exceeded
                         "budget of 0 ms is already expired")
                  else
                    match Serve_cache.find t.cache ~key:p.Serve_ops.p_key with
                    | Some result ->
                        Obs.Metrics.incr m_cache_hits;
                        let elapsed =
                          (Unix.gettimeofday () -. t0) *. 1000.
                        in
                        Reply
                          (ok_reply t ~id ~op ~cached:true ~elapsed_ms:elapsed
                             result)
                    | None ->
                        Obs.Metrics.incr m_cache_misses;
                        if Queue.length t.queue >= t.cfg.queue_capacity then
                          Reply
                            (error_reply t ~id Serve_protocol.Overloaded
                               (Printf.sprintf
                                  "admission queue full (%d requests pending)"
                                  t.cfg.queue_capacity))
                        else begin
                          let it_deadline =
                            match deadline_ms with
                            | None -> infinity
                            | Some d -> t0 +. (d /. 1000.)
                          in
                          Queue.add
                            {
                              it_client = client;
                              it_id = id;
                              it_prepared = p;
                              it_deadline;
                              it_admitted = t0;
                            }
                            t.queue;
                          Obs.Metrics.set m_queue
                            (float_of_int (Queue.length t.queue));
                          Queued
                        end)))
  in
  (match t.cfg.max_requests with
  | Some n when t.n_frames >= n -> t.s_draining <- true
  | _ -> ());
  result

let step t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some it ->
      Obs.Metrics.set m_queue (float_of_int (Queue.length t.queue));
      let id = it.it_id in
      let resp =
        let token =
          if it.it_deadline < infinity then Cancel.with_deadline it.it_deadline
          else Cancel.never
        in
        if Cancel.cancelled token then
          error_reply t ~id Serve_protocol.Deadline_exceeded
            "deadline expired while queued"
        else
          match it.it_prepared.Serve_ops.p_run ~cancel:token with
          | Ok result ->
              (* journal before replying: a crash after the reply must
                 not lose an entry the client believes exists *)
              Serve_cache.add t.cache ~key:it.it_prepared.Serve_ops.p_key
                ~op:it.it_prepared.Serve_ops.p_op result;
              let elapsed = (Unix.gettimeofday () -. it.it_admitted) *. 1000. in
              Obs.Metrics.observe m_latency elapsed;
              ok_reply t ~id ~op:it.it_prepared.Serve_ops.p_op ~cached:false
                ~elapsed_ms:elapsed result
          | Error (cls, msg) -> error_reply t ~id cls msg
      in
      Some (it.it_client, resp)

(* -- line framing --------------------------------------------------------
   Incremental newline framing over raw reads, with flood recovery: once
   the unterminated prefix exceeds the frame limit (plus slack) the
   framer reports it oversized and discards bytes up to the next
   newline, so a hostile client cannot grow the buffer without bound or
   wedge the daemon. *)

type framer = {
  f_buf : Buffer.t;
  f_limit : int;
  mutable f_skipping : bool;
}

let framer limit = { f_buf = Buffer.create 4096; f_limit = limit; f_skipping = false }

(* [feed fr chunk] returns the complete frames plus the number of
   unterminated floods detected (each deserves one [oversized] reply). *)
let feed fr chunk =
  Buffer.add_string fr.f_buf chunk;
  let s = Buffer.contents fr.f_buf in
  Buffer.clear fr.f_buf;
  let n = String.length s in
  let lines = ref [] and floods = ref 0 in
  let start = ref 0 in
  (try
     while true do
       let nl = String.index_from s !start '\n' in
       let line = String.sub s !start (nl - !start) in
       if fr.f_skipping then fr.f_skipping <- false
         (* tail of a flooded frame already answered: discard *)
       else lines := line :: !lines;
       start := nl + 1
     done
   with Not_found -> ());
  let rest = n - !start in
  if fr.f_skipping then () (* still inside the flood: keep discarding *)
  else if rest > fr.f_limit + 4096 then begin
    incr floods;
    fr.f_skipping <- true
  end
  else Buffer.add_substring fr.f_buf s !start rest;
  (List.rev !lines, !floods)

(* -- signals -------------------------------------------------------------- *)

let stop_requested = Atomic.make false

let install_signals () =
  Atomic.set stop_requested false;
  let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  (try Sys.set_signal Sys.sigterm request_stop with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint request_stop with Invalid_argument _ -> ());
  (* a client vanishing mid-reply surfaces as EPIPE on the write, which
     the loops handle; the default fatal signal must not *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let flood_reply t =
  error_reply t ~id:Json.Null Serve_protocol.Oversized
    (Printf.sprintf "unterminated frame exceeded %d bytes; discarded up to \
                     the next newline"
       t.cfg.max_frame)

(* -- stdio loop ----------------------------------------------------------- *)

let run_stdio t =
  install_signals ();
  let fr = framer t.cfg.max_frame in
  let buf = Bytes.create 65536 in
  let out resp =
    output_string stdout resp;
    output_char stdout '\n';
    flush stdout
  in
  let drain () =
    let rec go () =
      match step t with
      | Some ((), resp) ->
          out resp;
          go ()
      | None -> ()
    in
    go ()
  in
  let quit = ref false in
  while not !quit do
    if Atomic.get stop_requested || (draining t && queue_depth t = 0) then
      quit := true
    else
      match Unix.select [ Unix.stdin ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.read Unix.stdin buf 0 (Bytes.length buf) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | 0 -> quit := true (* EOF: drain and leave *)
          | n ->
              let lines, floods = feed fr (Bytes.sub_string buf 0 n) in
              for _ = 1 to floods do
                out (flood_reply t)
              done;
              List.iter
                (fun line ->
                  if line <> "" then (
                    (match admit t ~client:() line with
                    | Reply resp -> out resp
                    | Reply_shutdown resp -> out resp
                    | Queued -> ());
                    (* stdio is strictly in order: evaluate immediately
                       so responses pair with requests positionally as
                       well as by id *)
                    drain ()))
                lines)
  done;
  begin_shutdown t;
  drain ();
  finish t

(* -- unix socket loop ------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_fr : framer;
  mutable c_alive : bool;
}

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let w = Unix.write_substring fd s !pos (n - !pos) in
    pos := !pos + w
  done

let run_socket t ~path =
  install_signals ();
  if Sys.file_exists path then Sys.remove path (* stale socket: a kill -9 *);
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX path);
  Unix.listen srv 16;
  Obs.Log.info "serve: listening on %s" path;
  let conns = ref [] in
  let close_conn c =
    if c.c_alive then begin
      c.c_alive <- false;
      try Unix.close c.c_fd with Unix.Unix_error _ -> ()
    end
  in
  let send c resp =
    if c.c_alive then
      try write_all c.c_fd (resp ^ "\n")
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* the client went away mid-request: its replies are discarded,
           everyone else is unaffected *)
        close_conn c
  in
  let buf = Bytes.create 65536 in
  let handle_read c =
    match Unix.read c.c_fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> close_conn c
    | 0 -> close_conn c
    | n ->
        let lines, floods = feed c.c_fr (Bytes.sub_string buf 0 n) in
        for _ = 1 to floods do
          send c (flood_reply t)
        done;
        List.iter
          (fun line ->
            if line <> "" then
              match admit t ~client:c line with
              | Reply resp -> send c resp
              | Reply_shutdown resp -> send c resp
              | Queued -> ())
          lines
  in
  let quit = ref false in
  while not !quit do
    if Atomic.get stop_requested then begin_shutdown t;
    if draining t && queue_depth t = 0 then quit := true
    else begin
      conns := List.filter (fun c -> c.c_alive) !conns;
      let fds = List.map (fun c -> c.c_fd) !conns in
      let watch = if draining t then fds else srv :: fds in
      let timeout = if queue_depth t > 0 then 0. else 0.2 in
      match Unix.select watch [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          if List.mem srv readable then begin
            match Unix.accept srv with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | fd, _ ->
                conns :=
                  { c_fd = fd; c_fr = framer t.cfg.max_frame; c_alive = true }
                  :: !conns
          end;
          List.iter
            (fun c -> if c.c_alive && List.mem c.c_fd readable then handle_read c)
            !conns;
          (* one evaluation per round keeps accepts and reads flowing
             between long requests *)
          (match step t with
          | Some (c, resp) -> send c resp
          | None -> ())
    end
  done;
  (* drain whatever is still queued, then leave *)
  let rec drain () =
    match step t with
    | Some (c, resp) ->
        send c resp;
        drain ()
    | None -> ()
  in
  drain ();
  finish t;
  List.iter close_conn !conns;
  (try Unix.close srv with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  Obs.Log.info "serve: shut down cleanly"
