(** The CAFT placement engine, shared by {!Caft} (strict priority order,
    Algorithm 5.1) and {!Caft_batch} (windowed task selection, the
    Section 7 "further work" variant).

    The engine owns the network state, the placed replicas and the
    per-replica processor {e support sets} (see {!Caft} and DESIGN.md).
    Callers decide the task order; {!schedule_task} places the
    [epsilon + 1] replicas of one free task — every predecessor must have
    been scheduled already. *)

type t

val create :
  ?model:Netstate.model ->
  ?one_to_one:bool ->
  ?on_place:(Schedule.replica -> unit) ->
  epsilon:int ->
  Costs.t ->
  t
(** Fresh engine.  [one_to_one] (default [true]) enables the one-to-one
    mapping; with [false] every input uses full replication — the
    ablation that isolates the paper's core mechanism.  Raises
    [Invalid_argument] if the platform has fewer than [epsilon + 1]
    processors.

    [on_place] is called once per committed replica, immediately after
    its support set is recorded — the streaming hook.  After the callback
    returns, the engine drops the replica's stored communication record
    ([r_inputs]): later placements only read a replica's task, index,
    processor and finish time, so the placement decisions (and any
    schedule streamed from the callback) are byte-identical while the
    O(edges) supply lists stop accumulating.  {!to_schedule} must not be
    used on an engine created with [on_place]. *)

val epsilon : t -> int
val dag : t -> Dag.t

val schedule_task : t -> Dag.task -> unit
(** Place all replicas of a free task: per predecessor, a one-to-one head
    when a support-disjoint replica exists and the combined support is
    admissible, full replication otherwise.  Raises if a predecessor is
    unscheduled. *)

val estimate_finish : t -> Dag.task -> float
(** Earliest finish the {e first} replica of the task could achieve right
    now (simulated, nothing committed).  Used by the batch variant to
    pick, inside a window of ready tasks, the task that best fits the
    current processor/link availability. *)

val completion_lower : t -> Dag.task -> float
(** Earliest finish among the placed replicas of a scheduled task. *)

val support : t -> Dag.task -> int -> Bitset.t
(** The support set of a placed replica: the processors whose joint
    survival guarantees the replica completes (its own processor plus,
    transitively, the supports of its one-to-one sources).  Exposed for
    white-box tests of the disjointness invariant; a fresh copy is
    returned.  Raises [Invalid_argument] on an unplaced replica. *)

val ser_term : recv_free:float -> legs:int -> float -> float
(** [ser_term ~recv_free ~legs sum] is the one-port receive-serialization
    term of the candidate pruning bounds: a floating-point lower bound on
    the arrival of the last of [legs] messages, of non-negative durations
    whose floating-point sum is [sum], chained on a receive port free at
    [recv_free] ([w +. max prev leg_start] per leg, as in {!Netstate}), in
    whatever order the legs are booked.  [recv_free +. sum] itself is not
    one: float addition is not associative, and the sum can land an ulp
    above every chain.  Exposed for the white-box test that pins this. *)

val to_schedule : algorithm:string -> t -> Schedule.t
(** Freeze the engine's placements into a schedule (all tasks must have
    been scheduled). *)
