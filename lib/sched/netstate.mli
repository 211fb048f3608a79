(** Transactional network/processor state for list scheduling.

    This module is the communication engine shared by every scheduler in
    the repository.  It maintains, for the platform being scheduled onto:

    - [r(P)] — the ready time of each processor (finish time of the last
      task placed on it; the paper appends tasks, it never back-fills);
    - [SF(P)] — the sending free time of each processor (the one-port
      output port);
    - [RF(P)] — the receiving free time of each processor (the one-port
      input port);
    - [R(l)] — the ready time of every directed link.

    Under the {e bidirectional one-port model} (Section 4.3 of the paper),
    booking a replica serializes its incoming communications according to
    equations (4)–(6): each message leg starts at
    [S(c,l) = max(SF(src), F(src task), R(l))], finishes at [S + W], and
    arrivals at the destination are serialized on the receive port in
    non-decreasing order of link finish time.

    One deliberate deviation from the literal equation (6): we serialize
    each arrival after the {e previous arrival} rather than after the
    previous message's link finish.  The published formula can produce
    overlapping reception windows when [RF(P)] is large (both windows get
    pushed right by the same [max]); using the previous arrival restores
    inequality (3) in all cases and coincides with the published formula
    whenever it is consistent.

    Under the {e macro-dataflow model} there is no contention: a message
    leaves as soon as its source task completes and arrives [W] later;
    ports and links are never busy.

    Booking runs one struct-of-arrays kernel.  A caller loads a task's
    candidate sources into a {!sources} value once, sorted by the send
    order; {!probe} then evaluates the replica on one processor and undoes
    its own writes from an array log — the paper's "the incoming
    communications are removed from the links before the procedure is
    repeated on the next processor" — and {!commit} runs the same kernel
    without the undo and returns the booked messages.  Every scheduler
    books through this one pair; the test suite keeps its list-form
    booking oracle and its undo-free twin states in [test/oracle/]. *)

(** Communication model.

    - {!Macro_dataflow}: the traditional contention-free model — a message
      leaves at source completion, arrives [W] later, ports are never
      busy.
    - {!One_port}: the paper's bidirectional one-port model — one send and
      one receive at a time per processor, links exclusive.
    - [Multiport k]: the bounded multi-port model the paper discusses as
      the end-point-contention alternative (Hong & Prasanna's model, cited
      as \[14\]): each processor owns [k] send slots and [k] receive
      slots; a message occupies one slot at each end and its (exclusive)
      link.  [Multiport 1] behaves like {!One_port}. *)
type model = Macro_dataflow | One_port | Multiport of int

val model_to_string : model -> string
(** The spelling of schedule files and reports: ["one-port"],
    ["macro-dataflow"], ["multiport-K"]. *)

val model_of_string : string -> (model, string) result
(** Inverse of {!model_to_string}; [Error "bad multiport model S"] for a
    ["multiport-"] spelling without a count of at least 1, [Error
    "unknown model S"] for any other unknown spelling. *)

val algorithm_name : string -> model -> string
(** [algorithm_name base model] is the name a scheduler gives a schedule
    booked under [model]: [base] under one-port, [base ^ "-macro"] under
    macro-dataflow, [base ^ "-mpK"] under [Multiport K]. *)

type t

val create : ?model:model -> Platform.t -> t
(** Fresh state, all free times at zero.  [model] defaults to
    {!One_port}.  Messages reserve the physical links of the platform's
    routes ({!Platform.route_link}): one dedicated link per ordered pair
    on the clique, every link of the route on a [Topology] platform.
    Execution bookings append after the processor's last task, as in the
    paper. *)

val model : t -> model

val proc_ready : t -> Platform.proc -> float
(** [r(P)]. *)

val send_free : t -> Platform.proc -> float
(** [SF(P)]. *)

val recv_free : t -> Platform.proc -> float
(** [RF(P)]. *)

val link_ready : t -> src:Platform.proc -> dst:Platform.proc -> float
(** [R(l)] for the directed link: on a routed platform, the latest ready
    time over the physical links of the route. *)

(** A candidate data source for one input of a replica under
    consideration: replica [s_replica] of predecessor task [s_task],
    placed on [s_proc], finishing at [s_finish], sending [s_volume] units
    of data. *)
type source = {
  s_task : Dag.task;
  s_replica : int;
  s_proc : Platform.proc;
  s_finish : float;
  s_volume : float;
}

(** One booked message: the link leg [\[leg_start, leg_finish\]] on
    [src_proc -> dst_proc] plus the serialized [arrival] at the
    destination (the reception window is
    [\[arrival - duration, arrival\]]). *)
type message = {
  m_source : source;
  m_dst_proc : Platform.proc;
  m_duration : float;
  m_leg_start : float;
  m_leg_finish : float;
  m_arrival : float;
}

(** Result of booking one replica. *)
type booked = {
  b_start : float;  (** execution start on the processor *)
  b_finish : float;  (** [b_start + exec] *)
  b_messages : message list;  (** inter-processor messages, arrival order *)
  b_local : (Dag.task * int * float) list;
      (** co-located supplies used instead of messages:
          (predecessor, replica index, finish time) *)
}

(** {2 Booking} *)

type sources
(** A task's candidate sources in struct-of-arrays form, loaded once and
    probed on many processors.  Sources are grouped by predecessor
    {e slot} (the position of the predecessor in the task's input list).
    A value is owned by its caller and may be probed against any state;
    the booking scratch itself lives in {!t}. *)

val create_sources : unit -> sources
(** An empty source set; its arrays grow to the widest load. *)

val clear_sources : sources -> unit
(** Drop every loaded source, keeping the arrays for the next load. *)

val add_source :
  sources ->
  slot:int ->
  pred:Dag.task ->
  task:Dag.task ->
  replica:int ->
  proc:Platform.proc ->
  finish:float ->
  volume:float ->
  unit
(** Append one source of predecessor [pred] in slot [slot].  Sources are
    added in input order: slot by slot, each slot's replicas in order
    (the first-listed co-located replica supplies locally).  [task] is
    the producing task recorded in the messages, normally [pred]. *)

val seal_sources : sources -> unit
(** Sort the loaded sources by the total send-order key (finish, proc,
    task, replica, input position) and select every replica of every
    slot.  Must be called after the last {!add_source} and before a
    booking. *)

val select_head : sources -> slot:int -> replica:int -> unit
(** Restrict [slot] to its replica of index [replica] (a one-to-one
    input).  Selections persist until changed or until the next
    {!seal_sources}. *)

val select_full : sources -> slot:int -> unit
(** Let every loaded replica of [slot] supply it (full replication). *)

val leg_table :
  t -> sources -> skip:Bitset.t -> est:float array -> w:float array -> unit
(** [leg_table t src ~skip ~est ~w] fills the leg estimates of the [n]
    loaded sources (in {!add_source} order) towards every processor [p]
    not in [skip], candidate-major: [est.(p * n + k)] is the estimated
    finish of a leg from source [k] to [p] under the current state,
    [max SF(src) (max finish R(src -> p)) + W] — the sort key of
    Algorithm 5.2 line 3 — and [w.(p * n + k)] its duration [W].  A
    source on [p] itself stores its finish and [w = -1.].  Both arrays
    must hold [m * n] cells.  The state is only read, so the table stays
    exact until the next {!commit}: {!probe} undoes its own writes. *)

val probe :
  t ->
  sources ->
  colocate_exclusive:bool ->
  proc:Platform.proc ->
  exec:float ->
  float * float
(** [(b_start, b_finish)] that {!commit} would book right now for the
    selected sources on [proc], computed with the same arithmetic.  The
    state is left exactly as it was, also if the call raises: the port
    and link cells the booking writes are restored from an undo log, and
    the execution is never reserved.  Builds no list, sorts only the
    remote legs and allocates only the result pair. *)

val commit :
  t ->
  sources ->
  colocate_exclusive:bool ->
  proc:Platform.proc ->
  exec:float ->
  booked
(** [commit t src ~colocate_exclusive ~proc ~exec] books one replica on
    [proc]: the same kernel as {!probe}, without the undo.

    Each slot of [src] lists the sources that may supply one
    predecessor's data; an empty [src] books a task with no inputs,
    which starts at [r(proc)].  If some selected source of a slot is
    located on [proc] itself it becomes a {e local} supply (no message,
    data ready at the source finish) and, when [colocate_exclusive] is
    [true], the remaining copies of that predecessor are {e not} sent at
    all — the paper's intra-processor rule ("there is no need for other
    copies of [t*] to send data to processor [P]").  Passing
    [colocate_exclusive:false] books the remote copies as messages
    anyway, which CAFT's fallback rounds need when the co-located
    supplier might itself starve under a crash elsewhere (see [Caft]).
    Sources on other processors are always booked as messages.  The
    replica may start once {e at least one} source of every predecessor
    has delivered (the "first complete input set" rule used by all the
    schedulers), and once the processor is ready.

    The call mutates [t]: link legs consume [SF] of the source
    processors and [R] of the links, arrivals consume [RF(proc)], and
    the execution consumes [r(proc)].  To evaluate without committing,
    {!probe}. *)
