(* Chrome trace-event buffer.  Events are appended under a global mutex
   (tracing is coarse: one event per task placement / replay / campaign
   point, not per instruction), rendered lazily by [to_json].  Timestamps
   are microseconds since [start] so traces start at t=0 in Perfetto. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;  (* microseconds since trace start *)
  ev_dur : float;  (* a complete event's duration *)
  ev_tid : int;
  ev_args : (string * Json.t) list;
}

let mutex = Mutex.create ()
let enabled_flag = Atomic.make false
let origin_us = ref 0.
let events : event list ref = ref []  (* reverse chronological *)

(* Exit-time flush: a CLI run that exits (or dies) without reaching its
   explicit [write] would otherwise lose the whole buffer.  [set_output]
   arms a process [at_exit] hook once; an explicit [write] to the armed
   path disarms it so the trace is not written twice. *)
let output_path = ref None
let output_written = ref false
let at_exit_armed = ref false

let enabled () = Atomic.get enabled_flag

let clear () =
  Mutex.lock mutex;
  events := [];
  Mutex.unlock mutex

let start () =
  Mutex.lock mutex;
  events := [];
  origin_us := Obs_clock.now_us ();
  Mutex.unlock mutex;
  Atomic.set enabled_flag true

(* Take the buffer mutex before returning: any [record] already past its
   enabled check finishes appending first, so a flush that follows [stop]
   on this domain cannot lose an event that was mid-emission. *)
let stop () =
  Atomic.set enabled_flag false;
  Mutex.lock mutex;
  Mutex.unlock mutex

let record ev =
  Mutex.lock mutex;
  events := ev :: !events;
  Mutex.unlock mutex

let tid () = (Domain.self () :> int)

let eval_args = function None -> [] | Some f -> f ()

let with_span ?(cat = "ftsched") ?args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let t0 = Obs_clock.now_us () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Obs_clock.now_us () in
        record
          {
            ev_name = name;
            ev_cat = cat;
            ev_ts = t0 -. !origin_us;
            ev_dur = Float.max 0. (t1 -. t0);
            ev_tid = tid ();
            ev_args = eval_args args;
          })
      f
  end

let event_count () =
  Mutex.lock mutex;
  let n = List.length !events in
  Mutex.unlock mutex;
  n

let to_json () =
  Mutex.lock mutex;
  let evs = List.rev !events in
  Mutex.unlock mutex;
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.ev_tid) evs)
  in
  let thread_meta t =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 1);
        ("tid", Json.Int t);
        ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "domain %d" t)) ]);
      ]
  in
  let render e =
    let common =
      [
        ("name", Json.String e.ev_name);
        ("cat", Json.String e.ev_cat);
        ("pid", Json.Int 1);
        ("tid", Json.Int e.ev_tid);
        ("ts", Json.Float e.ev_ts);
      ]
    in
    let shape = [ ("ph", Json.String "X"); ("dur", Json.Float e.ev_dur) ] in
    let args =
      match e.ev_args with [] -> [] | kvs -> [ ("args", Json.Obj kvs) ]
    in
    Json.Obj (common @ shape @ args)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (List.map thread_meta tids @ List.map render evs) );
      ("displayTimeUnit", Json.String "ms");
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ()));
      output_char oc '\n');
  Mutex.lock mutex;
  if !output_path = Some path then output_written := true;
  Mutex.unlock mutex

let set_output path =
  Mutex.lock mutex;
  output_path := Some path;
  output_written := false;
  let arm = not !at_exit_armed in
  at_exit_armed := true;
  Mutex.unlock mutex;
  if arm then
    at_exit (fun () ->
        let pending =
          Mutex.lock mutex;
          let p =
            match (!output_path, !output_written) with
            | Some p, false -> Some p
            | _ -> None
          in
          Mutex.unlock mutex;
          p
        in
        match pending with
        | Some p -> ( try write p with Sys_error _ -> ())
        | None -> ())
