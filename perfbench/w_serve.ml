(* serve_mix: [ftsched serve --socket --cache] as a child process, driven
   as a closed loop over 2 connections with a seeded frame sequence:
   schedule, replay, analyze and montecarlo (2000 runs) on 40-200-task
   instances; 70% of frames repeat earlier parameters (cache hits on the
   read path), the rest are misses (evaluation plus a flushed journal
   append); no deadlines.  The only workload through [Serve_protocol],
   [Serve_cache] and [Serve_ops].

   Frames alternate between the connections with one in flight: with two
   in flight, a hit that lands behind the other connection's miss waits
   for that evaluation, and which hits do depends on timing, so the hit
   latency turned bimodal and swung from seed to seed instead of showing
   the read path.  The benchmark and the daemon run on one core (run.py
   sets the affinity they inherit).

   Every reply is checked against a direct in-process evaluation of the
   same frames, in send order, through the same three modules; that pass
   is also what the traced run decomposes into stages. *)

open Common

let connections = 2
let mc_runs = 2000

(* One turn of the mix of fresh parameters: 60 sets (the least common
   multiple of 5 ops, 4 sizes, 3 processor counts and 2 epsilons), three
   in every ten frames. *)
let cycle = 200
let rss_frames = 3 * cycle
let max_frame = Serve_server.default_config.max_frame

type frame = {
  conn : int;
  pkey : int;  (** index of its parameter set *)
  params : Json.t;
  line : string;  (** the request frame, without the newline *)
  mutable sent : float;
  mutable rtt : float;
  mutable reply : string;
}

type source = {
  rng : Rng.t;
  sets : (int, string * Json.t) Hashtbl.t;
  mutable count : int;
}

(* Fresh parameter sets cycle through the ops, sizes, processor counts
   and epsilons, so every seed sees the same mix; instance seeds and
   crash sets are drawn. *)
let ops = [| "schedule"; "replay"; "analyze"; "analyze"; "montecarlo" |]
let sizes = [| 40; 93; 147; 200 |]
let procs = [| 8; 12; 16 |]

let fresh_params rng n =
  let op = ops.(n mod Array.length ops) in
  let m = procs.(n mod Array.length procs) and epsilon = 1 + (n mod 2) in
  let base =
    [
      ("seed", Json.Int (Rng.int rng 1_000_000_000));
      ("tasks", Json.Int sizes.(n mod Array.length sizes));
      ("m", Json.Int m);
      ("epsilon", Json.Int epsilon);
    ]
  in
  let extra =
    match op with
    | "replay" ->
        let crashed = Rng.sample_without_replacement rng epsilon m in
        [ ("crashed", Json.List (List.map (fun p -> Json.Int p) crashed)) ]
    | "montecarlo" -> [ ("runs", Json.Int mc_runs); ("crashes", Json.Int epsilon) ]
    | _ -> []
  in
  (op, Json.Obj (base @ extra))

(* The op and size of fresh set [n] depend on [n mod classes]. *)
let classes = 20

(* Frames 0, 1 and 2 of every 10 bring fresh parameters (misses); the
   others repeat an earlier set, already answered (hits).  Hit number [h]
   repeats a drawn set of class [h mod classes], once one was sent, so
   every cycle repeats each op and size seven times: a hit's round trip
   grows with its reply (8-34 KB for analyze, a few hundred bytes
   otherwise), and with freely drawn repeats the median hit moved
   between the two. *)
let next_frame args src =
  let k = src.count in
  src.count <- k + 1;
  let n = Hashtbl.length src.sets in
  let pkey =
    if k mod 10 < 3 then begin
      Hashtbl.add src.sets n (fresh_params src.rng n);
      n
    end
    else
      let c = ((k / 10 * 7) + (k mod 10) - 3) mod classes in
      (* the sets of class c sent so far: c, c + classes, ... below n *)
      let sent = if n > c then ((n - 1 - c) / classes) + 1 else 0 in
      if sent = 0 then Rng.int src.rng n else c + (classes * Rng.int src.rng sent)
  in
  let op, params = Hashtbl.find src.sets pkey in
  let op = if args.unknown_op && k = 3 then "no-such-op" else op in
  let line =
    Serve_protocol.request_to_string
      { rq_id = Json.Int k; rq_op = op; rq_params = params; rq_deadline_ms = None }
  in
  { conn = k mod connections; pkey; params; line; sent = 0.; rtt = 0.; reply = "" }

(* -- the daemon and its connections ------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }
type daemon = { pid : int; conns : conn array }

let live = ref []

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Complete lines available on [c]; blocks until some bytes arrive. *)
let read_lines c =
  match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | 0 -> failwith "serve: the daemon closed a connection"
  | n ->
      Buffer.add_subbytes c.buf c.chunk 0 n;
      let s = Buffer.contents c.buf in
      (match String.rindex_opt s '\n' with
      | None -> []
      | Some last ->
          Buffer.clear c.buf;
          Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1));
          String.split_on_char '\n' (String.sub s 0 last))

let call c line =
  write_all c.fd (line ^ "\n") 0;
  let rec wait () = match read_lines c with l :: _ -> l | [] -> wait () in
  wait ()

let reap pid =
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let connect ~pid path =
  let deadline = now () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "serve: the daemon exited at start-up");
        if now () > deadline then failwith ("serve: no daemon listening on " ^ path);
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

(* Socket and journal paths stay relative: a Unix socket path is short. *)
let start args n =
  let dir = Filename.concat args.out_dir (Printf.sprintf "serve-%d" n) in
  mkdir_p dir;
  let journal = Filename.concat dir "journal" and sock = Filename.concat dir "s.sock" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ journal; sock ];
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process args.ftsched
      [| args.ftsched; "serve"; "--socket"; sock; "--cache"; journal |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  { pid; conns = Array.init connections (fun _ -> connect ~pid sock) }

let stop d =
  (try ignore (call d.conns.(0) {|{"op":"shutdown"}|}) with _ -> ());
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
  reap d.pid

(* The closed loop: the next frame goes out, on the next connection,
   when the reply to the previous one arrived, until [seconds] passed.
   The daemon's peak memory is read after [rss_frames] frames (or at the
   end of a shorter run), so that it does not grow with the speed of the
   run. *)
let drive args d src =
  let finished = ref [] and count = ref 0 and rss = ref nan in
  let t0 = now () in
  while now () -. t0 < args.seconds do
    if !count = rss_frames then rss := peak_rss_mb ~pid:d.pid ();
    incr count;
    let f = next_frame args src in
    let c = d.conns.(f.conn) in
    f.sent <- now ();
    write_all c.fd (f.line ^ "\n") 0;
    let rec reply () =
      match read_lines c with
      | [ line ] -> line
      | [] -> reply ()
      | _ -> failwith "serve: more than one reply to one request"
    in
    f.reply <- reply ();
    f.rtt <- now () -. f.sent;
    finished := f :: !finished
  done;
  if Float.is_nan !rss then rss := peak_rss_mb ~pid:d.pid ();
  (List.rev !finished, !rss)

(* -- the in-process pass ------------------------------------------------- *)

type stages = {
  parse_s : float;
  prepare_s : float;
  find_s : float;
  run_s : float;
  add_s : float;
  op : string;
  hit : bool;
  bytes : (string, string) result;
}

let evaluate cache ctx f =
  let staged name g = time (fun () -> Span.within name g) in
  let none =
    { parse_s = 0.; prepare_s = 0.; find_s = 0.; run_s = 0.; add_s = 0.; op = "";
      hit = false; bytes = Error "" }
  in
  let req, parse_s =
    staged "serve.protocol.parse" (fun () -> Serve_protocol.parse_request ~max_frame f.line)
  in
  match req with
  | Error (_, e) -> { none with parse_s; bytes = Error e }
  | Ok rq -> (
      let prep, prepare_s =
        staged "serve.ops.prepare" (fun () ->
            Serve_ops.prepare ctx ~op:rq.rq_op ~params:rq.rq_params)
      in
      let none = { none with parse_s; prepare_s; op = rq.rq_op } in
      match prep with
      | Error (_, e) -> { none with bytes = Error e }
      | Ok p -> (
          let found, find_s =
            staged "serve.cache.find" (fun () -> Serve_cache.find cache ~key:p.p_key)
          in
          let none = { none with find_s } in
          match found with
          | Some bytes -> { none with hit = true; bytes = Ok bytes }
          | None -> (
              let r, run_s =
                staged ("serve.ops.run." ^ p.p_op) (fun () -> p.p_run ~cancel:Cancel.never)
              in
              match r with
              | Error (_, e) -> { none with run_s; bytes = Error e }
              | Ok bytes ->
                  let (), add_s =
                    staged "serve.cache.add" (fun () ->
                        Serve_cache.add cache ~key:p.p_key ~op:p.p_op bytes)
                  in
                  { none with run_s; add_s; bytes = Ok bytes })))

let inprocess args frames n =
  let dir = Filename.concat args.out_dir (Printf.sprintf "inproc-%d" n) in
  mkdir_p dir;
  let journal = Filename.concat dir "journal" in
  if Sys.file_exists journal then Sys.remove journal;
  let cache =
    match Serve_cache.journaled ~resume:false journal with
    | Ok (c, _) -> c
    | Error e -> failwith e
  in
  let ctx = Serve_ops.create () in
  let result =
    time (fun () ->
        Span.within Span.root (fun () -> List.map (evaluate cache ctx) frames))
  in
  Serve_cache.close cache;
  result

(* The [result] member of an ok response, spliced in verbatim by the
   daemon: everything after the header up to the final brace. *)
let result_bytes reply =
  let marker = {|,"result":|} in
  let ml = String.length marker and n = String.length reply in
  let rec find i =
    if i + ml > n then None
    else if String.sub reply i ml = marker then Some (i + ml)
    else find (i + 1)
  in
  Option.map (fun i -> String.sub reply i (n - i - 1)) (find 0)

let check args o frames stages =
  let first_miss = Hashtbl.create 64 in
  List.iter2
    (fun f st ->
      operation o (fun () ->
          match Serve_protocol.parse_response f.reply with
          | Error e -> [ "non-protocol reply: " ^ e ]
          | Ok rs when not rs.rs_ok ->
              let cls, msg =
                Option.value rs.rs_error ~default:(Serve_protocol.Internal, "?")
              in
              [ Printf.sprintf "%s: %s: %s" f.line (Serve_protocol.class_name cls) msg ]
          | Ok rs -> (
              let got = Option.value ~default:"" (result_bytes f.reply) in
              let want =
                match st.bytes with Ok b -> b | Error e -> "in-process error: " ^ e
              in
              let want = if args.perturb then want ^ " " else want in
              (if got = want then []
               else [ f.line ^ ": reply differs from the direct evaluation" ])
              @ (if rs.rs_cached = st.hit then []
                 else [ f.line ^ ": daemon and in-process cache disagree" ])
              @
              match Hashtbl.find_opt first_miss f.pkey with
              | Some first when rs.rs_cached && first <> got ->
                  [ f.line ^ ": hit differs from its first miss" ]
              | Some _ -> []
              | None ->
                  Hashtbl.replace first_miss f.pkey got;
                  [])))
    frames stages

let stat_field doc path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some doc) path
  |> Fun.flip Option.bind Json.to_float
  |> Option.value ~default:0.

(* Time to build the instance a frame names, as the daemon does on a miss. *)
let instance_s f =
  let int k = Option.bind (Json.member k f.params) Json.to_int in
  match (int "seed", int "tasks", int "m") with
  | Some seed, Some tasks, Some m ->
      Some (snd (time (fun () -> Instance.make ~seed ~tasks ~m ())))
  | _ -> None

(* -- the workload -------------------------------------------------------- *)

let run args o =
  let setups =
    List.init 5 (fun n ->
        let d, dt = time (fun () -> start args n) in
        if n < 4 then stop d;
        (d, dt))
  in
  let d = fst (List.nth setups 4) in
  let setup_s = median (List.map snd setups) in
  let src = { rng = Rng.create args.seed; sets = Hashtbl.create 256; count = 0 } in
  let frames, daemon_rss = drive args d src in
  let stats =
    match Serve_protocol.parse_response (call d.conns.(0) {|{"op":"stats"}|}) with
    | Ok { rs_result = Some doc; _ } -> doc
    | _ -> Json.Null
  in
  stop d;
  let plain, plain_wall = inprocess args frames 0 in
  check args o frames plain;
  let replies =
    List.filter_map
      (fun f ->
        match Serve_protocol.parse_response f.reply with
        | Ok rs when rs.rs_ok -> Some (f, rs.rs_cached)
        | _ -> None)
      frames
  in
  let rtts cached xs =
    List.filter_map (fun (f, c) -> if c = cached then Some f.rtt else None) xs
  in
  let hits = rtts true replies and misses = rtts false replies in
  List.iter
    (fun (name, xs) ->
      Printf.printf "%s round trip, ms over %d: p25 %.3f p50 %.3f p75 %.3f p90 %.3f\n" name
        (List.length xs) (1000. *. quantile 0.25 xs) (1000. *. median xs)
        (1000. *. quantile 0.75 xs) (1000. *. quantile 0.9 xs))
    [ ("hit", hits); ("miss", misses) ];
  (* The host this was tuned on ran at a base speed most of the time,
     with bursts of up to 1.6 times that speed lasting a few seconds.  A
     run's figures are therefore taken per complete cycle of the mix (all
     cycles do the same kind of work) and reported as the upper quartile
     over cycles of the time-like figure: the base speed, unless bursts
     fill more than a quarter of the run. *)
  let cycles =
    let a = Array.of_list replies in
    match List.init (Array.length a / cycle) (fun c -> Array.to_list (Array.sub a (c * cycle) cycle)) with
    | [] -> [ replies ]
    | cs -> cs
  in
  (* A hit's round trip grows with its reply, so a cycle's hit figure is
     the mean over the classes of their median hit: unlike the median of
     all hits, it does not jump between the short and the long replies. *)
  let hit_figure c =
    let by_class = Array.make classes [] in
    List.iter
      (fun (f, hit) ->
        let k = f.pkey mod classes in
        if hit then by_class.(k) <- f.rtt :: by_class.(k))
      c;
    let meds = List.filter_map (function [] -> None | xs -> Some (median xs)) (Array.to_list by_class) in
    sum meds /. float_of_int (List.length meds)
  in
  let per_cycle =
    List.map
      (fun c ->
        let first = fst (List.hd c) and last = fst (List.nth c (List.length c - 1)) in
        (float_of_int (List.length c) /. (last.sent +. last.rtt -. first.sent),
         hit_figure c, median (rtts false c)))
      cycles
  in
  List.iteri
    (fun i (tp, hit, miss) ->
      Printf.printf "cycle %d: %.1f frames/s, hit class mean %.4f ms, miss p50 %.3f ms\n" i tp
        (1000. *. hit) (1000. *. miss))
    per_cycle;
  let upper f = quantile 0.75 (List.map f per_cycle) in
  e2e o "setup_s" setup_s;
  e2e o "throughput_per_s" (1. /. upper (fun (tp, _, _) -> 1. /. tp));
  e2e o "op_a_ms" (1000. *. upper (fun (_, hit, _) -> hit));
  e2e o "op_b_ms" (1000. *. upper (fun (_, _, miss) -> miss));
  e2e o "peak_rss_mb" daemon_rss;
  if args.trace then begin
    Span.start ();
    let traced, traced_wall = inprocess args frames 1 in
    Span.stop ();
    let med f = median (List.map f traced) in
    layer o "serve.protocol.parse_us" (1e6 *. med (fun s -> s.parse_s));
    layer o "serve.ops.prepare_us" (1e6 *. med (fun s -> s.prepare_s));
    layer o "serve.cache.find_us" (1e6 *. med (fun s -> s.find_s));
    let computed = List.filter (fun s -> (not s.hit) && Result.is_ok s.bytes) traced in
    List.iter
      (fun op ->
        layer o ("serve.ops.run_ms." ^ op)
          (1000.
          *. median
               (List.filter_map
                  (fun s -> if s.op = op then Some s.run_s else None)
                  computed)))
      Serve_ops.ops;
    layer o "serve.cache.add_us" (1e6 *. median (List.map (fun s -> s.add_s) computed));
    layer o "serve.transport_us"
      (1e6
      *. median
           (List.map2
              (fun f s -> f.rtt -. (s.parse_s +. s.prepare_s +. s.find_s +. s.run_s +. s.add_s))
              frames traced));
    layer o "serve.miss_p90_ms" (1000. *. quantile 0.9 misses);
    layer o "serve.hit_samples" (float_of_int (List.length hits));
    layer o "serve.miss_samples" (float_of_int (List.length misses));
    layer o "serve.cache.hit_rate" (stat_field stats [ "cache"; "hit_rate" ]);
    List.iter
      (fun k -> layer o ("serve." ^ k) (stat_field stats [ k ]))
      [ "shed"; "deadline_expired"; "errors" ];
    layer o "workload.instance_s"
      (median
         (List.concat
            (List.map2 (fun f s -> if s.hit then [] else Option.to_list (instance_s f)) frames traced)));
    layer o "trace.coverage" (Span.coverage (Span.spans ()));
    layer o "trace.overhead_frac" ((traced_wall /. plain_wall) -. 1.)
  end
