(* Plumbing shared by the benchmark workloads: arguments, clocks,
   quantiles, pinned output digests and the per-run outcome. *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  perturb : bool;  (** corrupt every expected value (self-test only) *)
  unknown_op : bool;  (** rewrite one serve frame to an unknown op (self-test) *)
  ftsched : string;  (** the [ftsched] executable, for serve_mix *)
  pins : string;  (** expected.json: digests pinned per workload and seed *)
  out_dir : string;  (** scratch files and the trace written at the end *)
}

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

(* Run [f 0], [f 1], ... until the time they report measuring adds up to
   [seconds] (output checks between them do not count); at least once,
   and at least twice in a traced run (one plain, one traced iteration). *)
let repeat args f =
  let least = if args.trace then 2 else 1 in
  let rec go i measured =
    let measured = measured +. f i in
    if i + 1 < least || measured < args.seconds then go (i + 1) measured
  in
  go 0 0.

let md5 s = Digest.to_hex (Digest.string s)

(* Exact float rendering for digests. *)
let add_floats b xs = List.iter (fun x -> Printf.bprintf b "%h;" x) xs

(* Peak resident set size (VmHWM) of a process, in MB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  In_channel.with_open_text path (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* -- outcome of one run ------------------------------------------------- *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** one line per failed operation *)
  mutable e2e : (string * float) list;
  mutable layer : (string * float) list;
  mutable digests : (string * string) list;  (** first digest seen per key *)
}

let outcome () =
  { attempted = 0; failed = 0; problems = []; e2e = []; layer = []; digests = [] }

(* One user operation: [f] returns the problems found in its output; an
   exception or any problem makes the operation count as failed. *)
let operation o f =
  o.attempted <- o.attempted + 1;
  let problems =
    match f () with
    | ps -> ps
    | exception e -> [ Printexc.to_string e ]
  in
  if problems <> [] then begin
    o.failed <- o.failed + 1;
    o.problems <- List.rev_append problems o.problems
  end

let layer o name v = o.layer <- (name, v) :: o.layer
let e2e o name v = o.e2e <- (name, v) :: o.e2e

(* Per-layer sums over the traced iterations of a run. *)
let tally : (string, float) Hashtbl.t = Hashtbl.create 32

let add name v =
  Hashtbl.replace tally name
    (v +. Option.value ~default:0. (Hashtbl.find_opt tally name))

let tallied name = Option.value ~default:0. (Hashtbl.find_opt tally name)

(* Odd iterations of a traced run are traced, even ones are not: the
   untraced ones give the overhead baseline on the same inputs. *)
let traced args i = args.trace && i mod 2 = 1

(* [trace.overhead_frac] from the iteration walls of a traced run. *)
let overhead ~traced_walls ~plain_walls =
  if traced_walls = [] || plain_walls = [] then 0.
  else (median traced_walls /. median plain_walls) -. 1.

(* -- pinned digests ------------------------------------------------------ *)

let pins = ref None

let pinned args ~key =
  let doc =
    match !pins with
    | Some d -> d
    | None ->
        let d =
          if Sys.file_exists args.pins then
            Json.parse_exn (In_channel.with_open_bin args.pins In_channel.input_all)
          else Json.Null
        in
        pins := Some d;
        d
  in
  Option.bind (Json.member args.workload doc) (fun w ->
      Option.bind (Json.member (string_of_int args.seed) w) (fun s ->
          Option.bind (Json.member key s) Json.to_str))

(* The digest [actual] must equal the one pinned for this workload, seed
   and key; for a seed without a pin, the first digest this run computed
   for [key].  The self-test's [perturb] corrupts the expectation. *)
let check_digest args o ~key actual =
  if not (List.mem_assoc key o.digests) then
    o.digests <- (key, actual) :: o.digests;
  let expected =
    match pinned args ~key with
    | Some d -> d
    | None -> List.assoc key o.digests
  in
  let expected = if args.perturb then "perturbed-" ^ expected else expected in
  if actual = expected then []
  else [ Printf.sprintf "%s: digest %s, expected %s" key actual expected ]

let counter name =
  match Obs.Metrics.find name with
  | Some (Obs.Metrics.Counter n) -> float_of_int n
  | _ -> 0.

(* Enable the program's own counters (and optionally its profiler) for
   one traced iteration, from zero. *)
let obs_on ~prof =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  if prof then begin
    Obs.Prof.reset ();
    Obs.Prof.set_enabled true
  end

let obs_off () =
  Obs.Metrics.set_enabled false;
  Obs.Prof.set_enabled false
