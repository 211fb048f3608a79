(** Mutable scheduling workspace shared by all schedulers.

    Couples a {!Netstate.t} with the set of replicas placed so far and
    turns the result into a {!Schedule.t} at the end.  The workspace also
    loads a free task's candidate sources — every placed replica of every
    predecessor — into the booking kernel ({!load_sources}); each
    scheduler then selects among them (FTSA and FTBAR send from all
    replicas, CAFT picks one-to-one heads or full replication per
    predecessor). *)

type t

val create :
  ?model:Netstate.model ->
  epsilon:int ->
  Costs.t ->
  t
(** Empty workspace over a fresh network state on the costs' platform,
    whose routes the bookings follow. *)

val net : t -> Netstate.t
val costs : t -> Costs.t
val dag : t -> Dag.t
val platform : t -> Platform.t
val epsilon : t -> int

val placed : t -> Dag.task -> Schedule.replica list
(** Replicas of a task placed so far, in placement order. *)

val placed_count : t -> Dag.task -> int
(** Number of replicas placed so far; O(1). *)

val get_placed : t -> Dag.task -> int -> Schedule.replica
(** [get_placed t task i] is the [i]-th placed replica of [task]
    ([0 <= i < placed_count t task]); O(1), no list materialized —
    the form the placement inner loop iterates with. *)

val procs_of : t -> Dag.task -> Platform.proc list
(** Processors hosting a replica of the task. *)

val is_placed_on : t -> Dag.task -> Platform.proc -> bool

val load_sources : t -> Netstate.sources -> Dag.task -> unit
(** Load every placed replica of every predecessor of the task into the
    source set, slot [i] being the task's [i]-th predecessor (its
    replicas in placement order, shipping the edge volume), and seal it;
    no list is built.  Raises [Invalid_argument] if some predecessor has
    no placed replica yet (the task was not free). *)

val place :
  t -> task:Dag.task -> proc:Platform.proc -> Netstate.booked -> Schedule.replica
(** Record a booked replica (the booking must have been committed on
    {!net}).  The replica index is the number of copies of the task placed
    before.  Returns the created record. *)

val place_unbooked :
  t ->
  task:Dag.task ->
  proc:Platform.proc ->
  start:float ->
  finish:float ->
  inputs:Schedule.supply list ->
  Schedule.replica
(** Low-level variant for schedulers that book by hand. *)

val strip_inputs : t -> task:Dag.task -> index:int -> unit
(** Drop the stored communication record ([r_inputs]) of an already-placed
    replica.  Used by the streaming scheduler after the record has been
    emitted to disk: later placements only read a replica's task, index,
    processor and finish time, so the schedule stays byte-identical while
    the O(edges) supply lists stop accumulating in memory. *)

val completion_lower : t -> Dag.task -> float
(** Earliest finish among the placed replicas of the task (the optimistic
    completion used to refresh successor priorities). *)

val to_schedule : algorithm:string -> t -> Schedule.t
(** Freeze into a schedule; same shape checks as {!Schedule.create}. *)
