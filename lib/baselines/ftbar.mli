(** FTBAR — Fault Tolerance Based Active Replication (Girault, Kalla,
    Sighireanu, Sorel, DSN 2003), the second baseline of the paper
    (Section 4.1).

    FTBAR is a list scheduler driven by the {e schedule pressure}

    {v sigma(ti, pj) = S(ti, pj) + s(ti) - R v}

    where [S(ti, pj)] is the earliest start time of the free task [ti] on
    processor [pj] in the current partial schedule, [s(ti)] the latest
    possible start time of [ti] measured bottom-up (critical path minus
    bottom level), and [R] the current schedule length.  At each step:

    + for every free task, the [epsilon + 1] processors of minimum
      pressure are selected;
    + among free tasks, the {e most urgent} one — the task whose selected
      set contains the largest pressure — is scheduled on its [epsilon+1]
      processors.

    Like FTSA, every replica of a predecessor sends to every replica of
    the task.  The recursive minimize-start-time duplication refinement of
    the original FTBAR (Ahmad & Kwok's procedure) is omitted — it would
    add extra task copies beyond the [epsilon + 1] replication scheme (see
    DESIGN.md: the omission only handicaps FTBAR marginally and does not
    affect the paper's qualitative conclusions). *)

val run :
  ?model:Netstate.model ->
  ?seed:int ->
  epsilon:int ->
  Costs.t ->
  Schedule.t
(** [run ~epsilon costs] builds the FTBAR schedule.  Defaults as in
    {!Ftsa.run}. *)
