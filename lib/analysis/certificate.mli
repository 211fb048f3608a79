(** Machine-checkable ε-resistance certificates.

    A certificate packages the per-task verdicts of {!Resilience.certify}
    with enough schedule metadata to be stored next to the schedule,
    shipped to another process, and {e re-verified} against the schedule
    without re-running the analysis:

    - a {!Resilience.Disjoint_supports} witness is checked directly — for
      each support set [A], crash the {e complement} of [A] and confirm
      the replica still completes (survival is monotone, so surviving the
      worst crash set disjoint from [A] proves survival of all of them),
      then check pairwise disjointness and the pigeonhole count;
    - a {!Resilience.Refuted} crash set is checked by confirming it
      starves the task (and has at most [epsilon] processors);
    - {!Resilience.Min_cut} verdicts carry no independent witness — they
      assert the emptiness of a minimal-kill-set family — so {!check}
      re-certifies those tasks (documented, and reported distinctly by
      {!check}'s error messages). *)

type t = {
  c_algorithm : string;
  c_epsilon : int;  (** the ε the certificate claims resistance against *)
  c_procs : int;
  c_tasks : int;
  c_resists : bool;
  c_verdicts : Resilience.task_verdict array;
}

val of_report : Schedule.t -> Resilience.report -> t

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}.  Never raises: returns [Error] for missing
    or ill-typed fields, a [processors] count below [1], and a support or
    crash entry that is not an integer in [\[0, processors)]. *)

val check : Schedule.t -> t -> (unit, string) result
(** Re-verify a certificate against a schedule, as described above.
    Returns [Error] with a human-readable reason on the first mismatch:
    metadata not matching the schedule, a support set that fails its
    complement-crash test or overlaps another, a refutation the schedule
    survives, or a re-certification disagreeing with a [Min_cut]
    verdict. *)
