(** Fail-stop execution replay of a static schedule.

    Section 6 of the paper compares the algorithms "when processors crash
    down by computing the real execution time for a given schedule rather
    than just bounds".  This module is that computation: a deterministic
    discrete-event replay of a {!Schedule.t} under a crash scenario.

    Semantics:

    - processors are {e fail-silent}: a crashed processor computes nothing
      and sends nothing (results already delivered before a timed crash
      remain valid);
    - surviving resources keep the {e static order} of their work: a
      processor executes its replicas, and each port/link carries its
      messages, in the order of the static schedule (skipping dead items;
      zero-length messages whose windows on a port or link tie exactly
      have no static order, and the replay's fixed traversal order
      sequences them);
    - durations are the static ones, but start times are recomputed: a
      replica starts when its processor is free {e and}, for every
      predecessor task, at least one supply (co-located replica finish or
      message arrival) has been delivered — the paper's "as soon as it
      receives its input data from [one replica], the task is executed and
      ignores the later incoming data";
    - a replica none of whose supplies survive for some predecessor is
      {e starved}: it never runs (the runtime cancels it), freeing its
      processor time;
    - messages whose destination is crashed are still emitted (the static
      sender does not know) and occupy the send port and link; messages
      whose {e source} is dead are never emitted and free all their
      resources.

    Under the one-port model the replay keeps port serialization; under
    macro-dataflow, messages leave at source completion and arrive [W]
    later with no port queuing — exactly the models used at scheduling
    time.  Messages occupy the physical links of the schedule's platform
    ({!Platform.route_link}), the links they were booked on, so a
    schedule built over a sparse interconnect replays its shared-link
    contention faithfully. *)

type replica_outcome =
  | Ran of { start : float; finish : float }
  | Crashed  (** processor in the crash scenario, or died mid-execution *)
  | Starved of Dag.task
      (** never ran: no surviving supply for this predecessor *)

(** {1 Compile-once evaluation}

    The static event graph (node numbering, dependency and resource-order
    edges, physical routes, supply index) does not depend on the crash
    scenario, only on the schedule and its platform's routes.  {!compile}
    builds it
    exactly once, runs its topological sort once, and keeps the resulting
    order together with a preallocated one-scenario scratch arena.  Every
    crash-time scenario — {!eval}, {!eval_crashed}, the one-shot
    wrappers and each chunk of an {!eval_batch} block — then
    runs the same kernel: one pass over that order, with no graph
    construction, no priority queue and near-zero allocation.  A
    [compiled] value owns its scratch arenas and is therefore {b not} safe
    to share across domains:
    every call that replays a schedule compiles the engine it needs and
    drops it on return ({!Monte_carlo.run}, {!Fault_check.check} and
    {!Inject.adversary} compile once per call; {!scan} copies the scratch
    of its extra domains).  A compile costs a few scenario
    evals, so it dominates wherever a schedule is replayed only a few
    times, as in the paper's campaigns. *)

type compiled
(** A crash-independent replay simulator for one schedule. *)

val compile : Schedule.t -> compiled
(** Build the reusable simulator.  Raises
    [Failure] if the schedule's static order is cyclic (the check runs
    here once, not per {!eval}). *)

val proc_count : compiled -> int
(** Processor count [m] of the compiled schedule — the required length of
    the [crash_time] array passed to {!eval}. *)

type outcome = {
  completed : bool;
      (** at least one replica of every task produced its result *)
  latency : float;
      (** the real execution time: latest over tasks of the earliest
          surviving replica completion; [nan] if not [completed] *)
  failed_tasks : Dag.task list;
      (** tasks with no surviving completed replica *)
  replicas : replica_outcome array array;
      (** dynamic outcome per task, per replica index *)
}

val eval :
  compiled ->
  crash_time:float array ->
  outcome
(** Replay one scenario.  [crash_time.(p)] is the instant processor [p]
    dies: [neg_infinity] for dead-from-start, [infinity] for never.  The
    array is only read.  Outcomes are identical to rebuilding the graph
    per scenario (pinned by the differential test suite). *)

val eval_crashed :
  compiled ->
  crashed:Platform.proc list ->
  outcome
(** {!eval} with the given processors dead from time zero (the row
    {!Scenario.write_from_start} writes).  Raises [Invalid_argument] for
    a processor outside [\[0, m)]. *)

(** {1 Batched evaluation}

    The campaign throughput path.  A scenario is one {e row} of [m] crash
    instants in a flat float array (scenario [s], processor [p] at
    [s * m + p]; written only by {!Scenario.write_from_start} and
    {!Scenario.write_timed}).  {!eval_batch} replays a range of rows over
    one compiled engine and writes the results into flat
    struct-of-arrays result vectors.  It runs in chunks of up to
    {!batch_lanes} rows: the kernel {!eval} runs walks the compiled order
    once per chunk, over a scratch arena that keeps one lane per
    scenario of the chunk, and does for each lane what it does for a
    single scenario, in the same order.  Results are therefore
    bit-identical to {!eval} scenario by scenario — pinned against the
    test suite's rebuild-per-scenario oracle by the 108-config
    differential suite and by a property over blocks on both sides of
    the chunk boundaries.  The lane arena is
    built on the engine's first [eval_batch] call, so an engine that only
    serves single evaluations never carries it.

    Sets the [replay.batch_size] gauge to the range length and
    [replay.scenarios_per_sec] to this call's evaluation rate. *)

val batch_lanes : int
(** Scenarios per chunk of {!eval_batch}.  A schedule whose
    (replicas + messages) x [batch_lanes] exceeds 2{^20} cells gets
    proportionally fewer lanes, down to one. *)

type batch = {
  br_count : int;  (** scenarios evaluated *)
  br_latency : float array;
      (** per scenario: {!eval}'s [latency] — the latest over tasks of
          the earliest replica completion, or [nan] if some task
          completed no replica *)
  br_tasks : int array;
      (** per scenario, tasks with a surviving replica; [[||]] unless
          [~degradation:true] *)
  br_sinks : int array;  (** sink tasks delivered; [[||]] likewise *)
  br_frontier : float array;
      (** latency of the surviving frontier; [[||]] likewise *)
}

val eval_batch :
  ?cancel:Cancel.token ->
  ?degradation:bool ->
  compiled ->
  float array ->
  first:int ->
  count:int ->
  batch
(** [eval_batch c rows ~first ~count] replays rows [first] to
    [first + count - 1] of [rows] on [c]'s lane arena; result [j] of the
    batch is row [first + j].  With [~degradation:true] (default
    [false]) it additionally fills the per-scenario degradation columns,
    and [br_latency] follows the Monte-Carlo rule: the frontier when
    every task completed, [nan] otherwise — the degradation summary of
    {!eval}'s outcome folded the way {!Monte_carlo.run} does.  Raises
    [Invalid_argument] if the range is negative or [rows] is shorter
    than [(first + count) * proc_count c].

    [cancel] (default {!Cancel.never}) is polled once per chunk of
    {!batch_lanes} scenarios; when it trips the batch raises
    [Cancel.Cancelled] between chunks, never inside one — the serve
    daemon's request-deadline hook.  A batch that returns
    normally is byte-identical whether or not a token was polled. *)

val batch_block : int
(** Rows per block of {!scan} (256).  No result depends on it. *)

val scan :
  ?cancel:Cancel.token ->
  ?degradation:bool ->
  ?domains:int ->
  compiled ->
  fill:(float array -> m:int -> int -> 'a -> unit) ->
  consume:('a -> batch -> int -> bool) ->
  'a Seq.t ->
  int
(** [scan c ~fill ~consume items] is the one in-order block scan over
    {!eval_batch}, and the one place verification runs in parallel.  It
    runs in waves of up to [domains] (default [1]) blocks of up to
    {!batch_block} items.  Per wave it calls [fill rows ~m j x] (a
    {!Scenario} writer) for the [j]-th item [x] of each block, in item
    order and always on the calling domain, so a [fill] that draws from
    a generator keeps its stream.  {!Parallel.map} then evaluates the
    wave's blocks, each on its own engine, and [consume x res j] is
    called for each item in order.  [consume] returns [false] to stop:
    no later item is consumed and no later wave is drawn from [items],
    though the stopping wave's later blocks were filled and evaluated.
    Returns the number of items consumed, the stopping one included —
    what one {!eval} per item, in order, would give, whatever [domains]
    is.  Block 0 of a wave runs on [c], with its row buffer; the others
    on copies of [c] made once per call, which share its compiled arrays
    and die with the call. *)

(** Graceful-degradation summary of one replay: what still completed
    when the crashes exceeded the schedule's tolerance.  [d_frontier] is
    the latency of the surviving frontier — the latest completion over
    tasks that did complete ([0.] if none did); it equals
    [outcome.latency] when everything completed. *)
type degradation = {
  d_tasks : int;  (** tasks with at least one surviving replica *)
  d_task_count : int;
  d_sinks : int;  (** sink (exit) tasks delivered *)
  d_sink_count : int;
  d_frontier : float;
}

val completion_fraction : degradation -> float
(** [d_tasks / d_task_count] (1.0 on an empty DAG). *)

val sink_fraction : degradation -> float
(** [d_sinks / d_sink_count] (1.0 on an empty DAG). *)

val batch_degradation : compiled -> batch -> int -> degradation
(** [batch_degradation c res j] is the degradation summary of scenario
    [j] of a [~degradation:true] batch of [c], rebuilt from its columns:
    what that crash row leaves complete, summarized from {!eval}'s
    outcome. *)

(** {1 One-shot wrappers}

    Thin compile-then-eval conveniences: each compiles the schedule and
    runs the kernel once on the row {!Scenario.write_from_start} or
    {!Scenario.write_timed} writes, or on a row where no processor dies,
    then drops the engine. *)

val crash_from_start : Schedule.t -> crashed:Platform.proc list -> outcome
(** Replay with the given processors dead from time zero (the adversarial
    model of the paper: tolerating [epsilon] arbitrary failures).
    Duplicate processors in [crashed] are ignored.  Raises
    [Invalid_argument] for a processor outside [\[0, m)]. *)

val crash_timed : Schedule.t -> crashes:(Platform.proc * float) list -> outcome
(** Replay where processor [p] dies at time [tau]: replicas and message
    emissions of [p] that would complete after [tau] are lost, earlier
    ones survive.  The earliest instant wins if a processor is listed
    twice.  Raises [Invalid_argument] for a processor outside
    [\[0, m)]. *)

val fault_free : Schedule.t -> outcome
(** Replay with no crash.  For a valid schedule, [latency] equals
    {!Schedule.latency_zero_crash} (a useful cross-check, exercised by the
    test suite) — unless zero-length messages tie on a port or link,
    where the replay may sequence the tie differently from the booking
    and finish earlier. *)
