(** CAFT — the Contention-Aware Fault Tolerant scheduling algorithm, the
    primary contribution of the paper (Section 5, Algorithms 5.1 and 5.2).

    CAFT is a list scheduler under the bidirectional one-port model that
    places [epsilon + 1] replicas of every task on distinct processors
    while {e drastically} reducing the replication communication overhead:
    instead of every replica of a predecessor sending to every replica of
    a successor (the [e(epsilon+1)^2] message blow-up of FTSA and FTBAR),
    CAFT pairs predecessor replicas with successor replicas one-to-one
    whenever fault tolerance allows it.

    For the current task [t]:

    + a processor is a {e singleton} if it hosts exactly one replica of
      one predecessor of [t]; [Bbar(tj)] is the set of replicas of
      predecessor [tj] on singleton processors, and
      [theta = min_j |Bbar(tj)|] ([epsilon + 1] for entry tasks);
    + [theta] replicas of [t] are placed by the {e one-to-one mapping}
      procedure: for every candidate processor, each predecessor
      contributes its replica with the earliest estimated communication
      finish on the link (the head of the sorted [Bbar] list), the mapping
      is simulated, and the (processor, heads) pair with the earliest
      finish wins.  The winning processor and the head processors are then
      {e locked} (equation (7)) so later replicas of [t] use disjoint
      resources — this is what makes one-to-one replication resist
      failures (Proposition 5.2);
    + the remaining [epsilon + 1 - theta] replicas fall back to FTSA-style
      full replication of incoming messages, which is always safe.

    When locking exhausts the platform (small [m], large [epsilon] and
    fan-in — a case the paper leaves implicit), the lock is relaxed to
    space exclusion only: processors already hosting a replica of [t]
    remain forbidden, mere message sources become eligible again
    (DESIGN.md, "Locked-set exhaustion").

    On fork and out-forest graphs the schedule carries at most
    [e(epsilon+1)] inter-processor messages (Proposition 5.1) — see the
    property tests and the message-count benchmarks. *)

val run :
  ?model:Netstate.model ->
  ?one_to_one:bool ->
  ?seed:int ->
  epsilon:int ->
  Costs.t ->
  Schedule.t
(** [run ~epsilon costs] builds the CAFT schedule.  [model] defaults to
    {!Netstate.One_port} (the model CAFT is designed for;
    [Macro_dataflow] is accepted for ablation studies).
    [one_to_one:false] disables the one-to-one mapping (every input falls
    back to full replication; algorithm name "CAFT-full") — the ablation
    that isolates the contribution of the paper's core mechanism.  [seed]
    (default 42) drives random tie-breaking only.  Raises
    [Invalid_argument] if the platform has fewer than [epsilon + 1]
    processors. *)

val run_stream :
  ?model:Netstate.model ->
  ?one_to_one:bool ->
  ?seed:int ->
  epsilon:int ->
  path:string ->
  Costs.t ->
  unit
(** [run_stream ~epsilon ~path costs] builds the same CAFT schedule as
    {!run} — identical placements, identical random tie-breaking — but
    streams it to [path] in the {!Schedule_io} format instead of
    materializing a {!Schedule.t}: each replica's communication record is
    written as soon as the replica is placed and then dropped from
    memory, so peak heap stays O(n + frontier) instead of O(edges).  The
    file parses back with {!Schedule_io.of_file} to a schedule equal to
    [run]'s (replica lines appear in placement order; parsing
    renormalizes).  The million-task entry point. *)

val fault_free :
  ?model:Netstate.model ->
  ?seed:int ->
  Costs.t ->
  Schedule.t
(** CAFT with [epsilon = 0], the paper's "FaultFree-CAFT" reference curve
    (which reduces to HEFT); algorithm name "CAFT-ff". *)
