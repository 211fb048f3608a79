(** Plain-text serialization of instances and schedules.

    The format is line-oriented and self-contained: it carries the task
    graph (names, edges, volumes), the platform (unit delays), the cost
    matrix and every replica with its supplies, so a schedule can be
    saved, inspected with standard text tools, diffed across runs, and
    reloaded later for replay or validation without regenerating the
    instance.

    {v
ftsched-schedule v1
algorithm CAFT
epsilon 1
model one-port
tasks 4
procs 3
task 0 load
edge 0 1 80
delay 0 1 0.5
cost 0 0 60
replica 0 0 2 0 60
local 1 0 0 0 60
message 1 1 0 0 2 60 80 1 40 60 100 100
end
    v}

    Floating-point fields are printed with enough digits ([%.17g]) to
    round-trip exactly.  A task name is printed as is unless it is empty,
    holds whitespace or starts with ['"']; such a name is printed as an
    OCaml string literal ([task 2 "load a"]), the only form in which the
    parser reads a name that is not one word. *)

val to_string : Schedule.t -> string

val to_file : string -> Schedule.t -> unit

(** {1 Streaming writer}

    Incremental emission for schedules too large to hold in memory: the
    instance header (graph, delays, costs) is written on creation, each
    replica with its supplies as it is placed, and the terminating [end]
    on close.  The format is the same as {!to_string}, so a streamed file
    parses back with {!of_file}; replica lines appear in placement order
    rather than task-id order, which {!Schedule.create} renormalizes on
    parse — re-serializing the parsed schedule yields the exact
    {!to_string} bytes of the equivalent in-memory schedule. *)

type writer

val stream_writer :
  algorithm:string ->
  epsilon:int ->
  model:Netstate.model ->
  path:string ->
  Costs.t ->
  writer
(** Opens [path] for writing and emits the instance header.  The channel
    is closed (and the partial file left behind) if header emission
    raises. *)

val stream_replica : writer -> Schedule.replica -> unit
(** Appends one replica and its supply lines.  Raises [Invalid_argument]
    if the writer is closed. *)

val stream_close : writer -> unit
(** Writes the [end] line and closes the channel; idempotent. *)

exception Parse_error of { line : int; message : string }

val of_string : string -> Schedule.t
(** Rebuilds the costs and the schedule.  Raises {!Parse_error}, and no
    other exception, on malformed input, reported at the offending line
    where there is one:
    - a line that does not parse, or a missing header, [end], [tasks],
      [procs] or [epsilon] (the last three at line 0);
    - a [task], [cost], [delay] or supply line whose task or processor
      id is out of range, and a [delay] line whose delay is negative,
      nan, or non-zero from a processor to itself;
    - an [edge] line with an endpoint outside [[0, tasks)], a self edge,
      a duplicate edge or a negative volume, and an [edge] line that
      closes a cycle (the last line, in file order, of the cycle
      {!Dag.Cycle} would report);
    - the shape checks of {!Schedule.create}: a [replica] line whose
      task or processor is out of range, whose index is not in
      [0..epsilon], or whose processor another replica of its task
      already uses (at the later line); a task with fewer than
      [epsilon + 1] replicas (at the [end] line);
    - a second [replica] line for one task and index (at that line).
    Of two [task] or [cost] lines for one cell the first wins; a task
    without a [task] line is named [t<id>], as {!Dag.Builder.add_task}
    names it. *)

val of_file : string -> Schedule.t
(** {!of_string} of the file's contents; raises [Sys_error] if it cannot
    be read, and {!Parse_error} as {!of_string} does. *)
