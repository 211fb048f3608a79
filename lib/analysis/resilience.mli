(** Static certification of [epsilon]-fault tolerance (Proposition 5.2
    without replay).

    Under fail-stop crashes from time zero, whether a replica completes is
    purely combinatorial: replica [r] survives a crash set [S] iff its
    processor is alive and, for every predecessor of its task, at least
    one recorded supplier replica survives [S].  A schedule resists
    [epsilon] failures iff no crash set of size at most [epsilon] starves
    every replica of some task.

    Instead of enumerating the [C(m, epsilon)] crash sets (what
    [Ftsched_sim.Fault_check] replays, sampling beyond 20k subsets), this
    module computes, bottom-up in topological order, the family of
    {e minimal kill sets} of every replica — the antichain of minimal
    processor sets whose joint crash starves it — truncated to sets of at
    most [epsilon] processors.  Truncation is lossless for the decision:
    any kill set of size [<= epsilon] contains a minimal one of size
    [<= epsilon] whose per-supplier components are themselves of size
    [<= epsilon].  A task is vulnerable iff combining one kill set per
    replica stays within [epsilon] processors; the smallest such union is
    a {e minimal counterexample} crash set, directly checkable by replay.
    The result is exact — the same verdict as exhaustive enumeration — at
    a cost polynomial in the schedule for fixed [epsilon].

    A family is one flat [int array], [ceil (m / 62)] words per set, so
    no set is a heap block of its own.  Each union of two families is
    built as a batch: every union within [epsilon], each distinct set
    once, kept iff no proper subset was generated, and listed in reverse
    order of first generation — exactly the list an incremental
    add-if-minimal fold returns.  That order decides which of several
    equally small kill sets refutes a task.

    As a human-readable (and independently checkable) witness the
    certifier also reports, when one exists, a family of pairwise
    {e disjoint support sets}: one processor set per replica such that the
    replica survives whenever its set is untouched.  With [epsilon + 1]
    pairwise disjoint sets, any [epsilon] crashes miss one of them
    entirely — the Hall/pigeonhole argument the paper uses for the
    one-to-one mapping.  When the greedy support construction does not
    yield disjoint sets the task is still certified by the (exhaustive)
    kill-family computation, reported as {!Min_cut}. *)

type witness =
  | Disjoint_supports of Bitset.t array
      (** per replica index, a processor set [A] with: if no processor of
          [A] crashes, the replica completes.  Pairwise disjoint. *)
  | Min_cut
      (** no small disjoint-support witness found; certified because the
          truncated minimal-kill-family of the task is empty, i.e. every
          crash set starving all replicas has more than [epsilon]
          processors. *)

type task_verdict =
  | Certified of witness
  | Refuted of Platform.proc list
      (** a minimal crash set of size [<= epsilon] starving the task,
          sorted increasingly *)

type report = {
  rs_epsilon : int;  (** the [epsilon] the analysis was run against *)
  rs_resists : bool;
  rs_tasks : task_verdict array;  (** indexed by task id *)
  rs_counterexample : (Platform.proc list * Dag.task list) option;
      (** smallest refuting crash set over all tasks, with every task it
          starves — the same shape as [Fault_check.report.counterexample] *)
}

exception Family_overflow of Dag.task
(** Raised when a kill-set family exceeds [max_family] elements while
    certifying the given task — counted as the incremental fold would
    hold it after each added union, so a batch whose final family is
    small can still overflow; the analysis is then abandoned rather than
    risking an unsound truncation.  Practically reachable only for large
    [epsilon] on highly entangled schedules — fall back to replay
    sampling. *)

val certify :
  ?epsilon:int ->
  ?domains:int ->
  ?max_family:int ->
  Schedule.t ->
  report
(** [certify sched] statically decides resistance to [epsilon] (default:
    the schedule's replication degree) arbitrary fail-stop crashes.  No
    replay is performed.  Tasks of wide DAG levels are certified in
    parallel over [domains] OCaml domains (default
    {!Parallel.available_domains}).  [max_family] (default [65536]) bounds
    any intermediate kill-set family, see {!Family_overflow}. *)

val survivors : Schedule.t -> crashed:Platform.proc list -> bool array array
(** [survivors sched ~crashed].(task).(replica) — the combinatorial
    survival relation under the given from-start crash set: alive
    processor and, per predecessor, at least one surviving supplier.
    Agrees with [Replay.crash_from_start] on completion (not on times). *)

val starved_tasks : Schedule.t -> crashed:Platform.proc list -> Dag.task list
(** Tasks with no surviving replica, increasing ids. *)

val pp_verdict : Format.formatter -> task_verdict -> unit
