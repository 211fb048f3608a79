(** Monte-Carlo fault-injection campaigns over a single schedule.

    Draws many random crash scenarios (from-start or timed), replays each
    one (a repeated from-start crash set once), and aggregates the real execution times — the dynamic counterpart
    of the static bounds, used by the examples and the CLI. *)

type mode = Scenario.mode =
  | From_start  (** crashed processors are dead from time zero *)
  | Timed of float
      (** each crashed processor dies at a uniform instant in
          [\[0, horizon)], where horizon is the given value (use the
          schedule makespan for full coverage) *)

(** Graceful-degradation statistics over the runs of one campaign,
    computed only when it injects {e more} crashes than the schedule's
    [epsilon] — within tolerance the completion fraction is constantly
    1.0 by Proposition 5.2 and the plain path is kept bit-identical. *)
type degradation = {
  deg_completion_mean : float;
      (** mean fraction of tasks still completing per run *)
  deg_completion_min : float;  (** worst run *)
  deg_sink_mean : float;  (** mean fraction of sink tasks delivered *)
  deg_frontier_mean : float;
      (** mean latency of the surviving frontier (0 when nothing ran) *)
}

type report = {
  runs : int;
  completed : int;  (** runs in which every task produced a result *)
  replays : int;
      (** the scenarios the report counts, always [runs] (the
          [montecarlo.scenarios] metric).  A from-start crash set that
          several runs drew is replayed once: the kernel replays are the
          [montecarlo.distinct] and [replay.runs] metrics *)
  latency : Stats.summary option;  (** over the completed runs; [None] if none *)
  worst_slowdown : float;
      (** max completed latency / zero-crash latency; [nan] if none —
          printed as ["-"] by {!pp} *)
  failure_rate : float;  (** fraction of runs that lost a task *)
  degradation : degradation option;
      (** [Some] iff [crashes > epsilon]; {!pp} adds a degradation line
          only in that case, so historical output is unchanged *)
}

val run :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?cancel:Cancel.token ->
  crashes:int ->
  mode:mode ->
  Schedule.t ->
  report
(** [run ~crashes ~mode sched] draws [runs] (default 1000) scenarios,
    each crashing [crashes] distinct processors chosen uniformly, and
    aggregates their replays.  With [mode = From_start] and
    [crashes <= epsilon] on a fault-tolerant schedule, [failure_rate] is
    [0.] by Proposition 5.2.

    A [From_start] campaign replays each distinct crash set once, when a
    run first draws it, and counts its outcome for every run that drew
    it: there are at most C(m, crashes) sets, so a long campaign is
    mostly repeats.  The report is that of one replay per run.

    [domains] (default [1]) evaluates the blocks of the one
    {!Replay.scan} over that many OCaml domains.  The call compiles one
    simulator ({!Replay.compile}) and drops it on return.  Scenario [j]
    is drawn from the root RNG ({!Scenario.draw_row}) in run order and
    the results are folded in run order, so the report is
    byte-identical for every [domains] value (pinned by the test suite
    against a per-scenario oracle).  The default stays sequential because
    campaign code may already be running one {!Parallel.map} over
    experiment points.  Sets the [replay.scenarios_per_sec] gauge (runs
    per second).

    [cancel] (default [Cancel.never]) is polled once per chunk of
    {!Replay.batch_lanes} scenarios inside {!Replay.eval_batch} and, in
    [From_start] mode, once per {!Replay.batch_lanes} runs aggregated,
    so a tail of repeats cannot outlive the token; when it
    trips — an expired serve-request
    deadline, a daemon shutdown — the campaign raises [Cancel.Cancelled]
    instead of finishing.  Every worker domain polls the same token, so
    a multi-domain campaign unwinds promptly.  A run that returns
    normally is byte-identical whether or not a token was polled. *)

val degradation_curve :
  ?seed:int ->
  ?runs:int ->
  ?domains:int ->
  ?cancel:Cancel.token ->
  ?max_crashes:int ->
  mode:mode ->
  Schedule.t ->
  (int * report) list
(** [degradation_curve ~mode sched] sweeps the crash count from [0] to
    [max_crashes] (default [min m (epsilon + 3)] — past the tolerance)
    and runs one campaign per count: the completion-fraction-vs-crash
    curve of the schedule.  Reports for counts [<= epsilon] have
    [degradation = None] (they complete everything); later points carry
    the degradation statistics. *)

val pp : Format.formatter -> report -> unit
