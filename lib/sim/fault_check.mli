(** Dynamic fault-tolerance verification (Proposition 5.2 in executable
    form).

    A schedule {e resists} [epsilon] failures when, for every set of at
    most [epsilon] crashed processors, the replay still completes every
    task.  Completion is monotone in the crash set (crashing one more
    processor can only remove supplies), so checking all subsets of size
    exactly [epsilon] is sufficient; this module enumerates them
    exhaustively when the count is reasonable and falls back to random
    sampling otherwise.

    Both modes run one {!Replay.scan} on one compiled simulator: the
    exhaustive mode over every subset in lexicographic order
    ({!subsets}), the sampled mode over the seeded samples.  Crash rows
    are filled and evaluated a wave of blocks at a time, results are
    consumed in order and the scan stops at the first counterexample, so
    the report equals the one-scenario-at-a-time loop's for every
    [?domains].

    For an {e exact} verdict without enumeration, see
    [Ftsched_analysis.Resilience]; pass its report as [?static] to
    {!check} to cross-validate the two. *)

type report = {
  resists : bool;
  scenarios_checked : int;
      (** crash sets the scan consumed, the refuting one included, plus
          one when a static counterexample was replayed *)
  exhaustive : bool;  (** whether all size-[epsilon] subsets were tried *)
  counterexample : (Platform.proc list * Dag.task list) option;
      (** a crash set that starves tasks, with the starved tasks *)
  worst_latency : float;
      (** largest real execution time over the completed scenarios
          checked; [nan] if none completed *)
  static_agrees : bool option;
      (** [None] when no [?static] report was given; otherwise whether
          the static certificate and the replay verdict agree.  In
          sampled mode a static counterexample is replayed first and
          adopted when the replay confirms it. *)
}

val check :
  ?max_exhaustive:int ->
  ?samples:int ->
  ?domains:int ->
  ?cancel:Cancel.token ->
  ?static:Resilience.report ->
  epsilon:int ->
  Schedule.t ->
  report
(** [check ~epsilon sched] verifies [epsilon]-fault tolerance.  If the
    number of size-[epsilon] crash sets is at most [max_exhaustive]
    (default 20000), enumeration is exhaustive; otherwise [samples]
    (default 1000) random subsets are drawn from the fixed seed 7.
    [epsilon] may differ from the schedule's replication degree — e.g. to
    show that an [epsilon]-replicated schedule does {e not} in general
    resist [epsilon + 1] failures.

    [domains] (default [1]) evaluates the scan's blocks over that many
    OCaml domains; the report, [scenarios_checked] and the
    [fault_check.scenarios] count are the same for any value.

    [cancel] (default [Cancel.never]) is polled once per chunk of
    {!Replay.batch_lanes} crash sets on every enumeration or sampling
    path (inside {!Replay.eval_batch});
    when it trips, [check] raises
    [Cancel.Cancelled] — the serve daemon's request-deadline hook.  A
    check that returns normally never depends on the token.

    [static] cross-validates against a static ε-resistance report from
    [Ftsched_analysis.Resilience.certify]: the result's [static_agrees]
    records the comparison, and in sampled mode a refuting crash set from
    the certificate is replayed and adopted as [counterexample] when
    confirmed, making the sampled verdict exact whenever the static
    analysis found a refutation. *)

val subsets : n:int -> k:int -> Platform.proc list Seq.t
(** [subsets ~n ~k] is every increasing [k]-subset of [\[0, n-1\]] in
    lexicographic order, as lists: the enumeration of {!check} and of
    [Inject.adversary]'s exhaustive phase.  Empty unless
    [0 <= k <= n]. *)

val count_combinations : int -> int -> int
(** Binomial coefficient, saturating at [max_int]. *)
