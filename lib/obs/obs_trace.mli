(** Span tracing in Chrome trace-event JSON.

    When enabled, spans wrap the interesting phases of a run — priority
    computation, per-task placement, validation, replay, each campaign
    granularity point — and the resulting file loads directly in
    Perfetto ([ui.perfetto.dev]) or [chrome://tracing].  Events carry the
    recording domain's id as their track ([tid]), so parallel campaign
    runs render as one lane per domain.

    Disabled (the default), {!with_span} runs its thunk with one atomic
    load of overhead; argument thunks are never evaluated. *)

val start : unit -> unit
(** Clear the buffer, re-zero the clock origin and start recording. *)

val stop : unit -> unit
(** Stop recording.  Returns only after any span already past its enabled
    check has finished appending, so a flush that follows [stop] sees
    every event that was mid-emission — nothing is dropped at the
    stop/flush boundary. *)

val enabled : unit -> bool

val set_output : string -> unit
(** Arm an exit-time flush: if the process exits (normally or via [exit]
    anywhere) before {!write} was called on this path, an [at_exit] hook
    writes the buffer there, so a CLI run that never reaches its explicit
    write still leaves a loadable trace instead of a truncated one.  An
    explicit {!write} to the same path disarms the hook for that run. *)

val with_span :
  ?cat:string ->
  ?args:(unit -> (string * Json.t) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] and, if recording, emits a complete
    ("ph":"X") event covering its execution, even when [f] raises.
    [cat] defaults to ["ftsched"]; [args] is evaluated only when
    recording. *)

val event_count : unit -> int
(** Number of buffered events (metadata excluded). *)

val to_json : unit -> Json.t
(** The whole buffer as [{"traceEvents": [...], "displayTimeUnit":"ms"}],
    chronological, with one [thread_name] metadata record per domain
    seen.  Parseable by [Util.Json] and loadable in Perfetto. *)

val write : string -> unit
(** [to_json] to a file. *)

val clear : unit -> unit
