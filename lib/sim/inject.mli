(** Adversarial fault injection: worst-case search over fault plans.

    [Monte_carlo] samples crash scenarios uniformly; this module {e hunts}
    for them.  Two questions are answered for one schedule:

    - {b worst-case slowdown}: over plans with at most [epsilon] crashes —
      which the schedule must survive (Proposition 5.2) — which crash
      subset and which crash {e instants} maximize the real execution
      time?  The search enumerates from-start subsets exhaustively when
      the subset space fits the budget (then its maximum provably
      dominates any Monte-Carlo sample of the same space), and otherwise
      seeds greedily with the most critical singletons and grows them with
      a beam; the surviving subsets then get their crash instants refined
      by coordinate descent over the static execution midpoints of each
      crashed processor.
    - {b minimal kill set}: the smallest from-start crash set that loses a
      task.  When ε-resistance is refuted, the minimal counterexample of
      [Analysis.Resilience]'s certificate is adopted (certified minimal,
      size [<= epsilon]).  When it holds, every size-[epsilon + 1]
      replica-processor set of a single task is a kill set and no smaller
      one exists — the search then picks the one with the worst graceful
      degradation.

    The ε-verdict comes from the exhaustive phase when it ran and every
    size-[epsilon] subset completed (as did the fault-free replay):
    completion is monotone in the crash set, so the schedule then resists
    [epsilon] crashes exactly, and the certificate is not computed.
    {!Resilience.certify} runs only when its answer is new — after a beam
    search, or when some subset lost a task (the kill set is then its
    counterexample).

    The whole search is deterministic from [seed] (randomness is only used
    to top up the subset pool when the space exceeds the budget) and
    bounded by [budget] frontier evaluations — each one a crash row of a
    {!Replay.scan}, counted by the [stress.frontier_evals] metric.  A
    scan holds candidates whose results cannot influence each other (the
    exhaustive subsets, a frontier set's extensions, one processor's
    crash instants, the kill-set scan), and its results are consumed in
    candidate order, so the search is the same as one replay per
    candidate.  The
    profiler splits it into [stress.subsets], [stress.refine] and
    [stress.kill] phases.  Exposed on the command line as
    [ftsched stress]. *)

(** Worst completed plan found within [epsilon] crashes. *)
type worst = {
  w_crashes : (Platform.proc * float) list;
      (** crash instants, sorted by processor; [neg_infinity] means dead
          from start *)
  w_latency : float;
  w_slowdown : float;  (** [w_latency /. fault-free latency] *)
  w_exhaustive : bool;
      (** the from-start subset space was fully enumerated, so
          [w_latency] is a true maximum over from-start scenarios *)
}

(** Smallest crash set found that loses at least one task. *)
type kill = {
  k_procs : Platform.proc list;  (** increasing ids *)
  k_degradation : Replay.degradation;
      (** what still completes under that crash set *)
  k_certified : bool;
      (** minimality is backed by the {!Resilience} certificate: either
          its refuting counterexample, or [epsilon]-resistance was
          certified so no set of [<= epsilon] processors can kill *)
}

type report = {
  iv_epsilon : int;
  iv_m : int;
  iv_budget : int;  (** frontier-evaluation budget given *)
  iv_evals : int;  (** frontier evaluations actually spent *)
  iv_fault_free : float;  (** replay latency with no fault *)
  iv_cert_resists : bool option;
      (** the ε-verdict: [Some true] straight from a completing exhaustive
          phase, otherwise {!Resilience.certify}'s; [None] if that
          certification was abandoned ({!Resilience.Family_overflow}).
          So an exhaustive search that completes reports [Some true] even
          on a schedule whose certification would overflow — possible
          only for [epsilon] close to [m] (at least [m - 4], with
          [m >= 19]) or a budget far above the default *)
  iv_worst : worst option;  (** [None] only if no plan completed *)
  iv_min_kill : kill option;
}

val adversary :
  ?seed:int ->
  ?budget:int ->
  ?beam:int ->
  ?domains:int ->
  Schedule.t ->
  report
(** [adversary sched] runs the budget-bounded search described above.
    [seed] (default 11) only matters when the subset space exceeds
    [budget] (default 20000) evaluations; [beam] (default 8) bounds the
    greedy frontier; [domains] (default [1]) evaluates the blocks of
    every {!Replay.scan}, and the static certification when it runs, over
    that many OCaml domains.  The search is deterministic: its report and
    [stress.frontier_evals] count are the same for any [domains]. *)

val pp : Format.formatter -> report -> unit
(** Human-readable multi-line report. *)

val to_json : report -> Json.t
(** Machine-readable report ([ftsched stress --json]). *)
