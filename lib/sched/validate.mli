(** Static validation of fault-tolerant schedules — the one
    implementation of schedule validity.

    Checks that a schedule is {e valid} in the sense of Section 5 of the
    paper: tasks respect precedence through recorded supplies, execution
    durations match the cost matrix, no processor computes two tasks at
    once, and — under the one-port model — inequalities (1), (2) and (3)
    hold: link legs on a directed link never overlap, the messages leaving
    a processor are serialized on its send port, and the messages entering
    a processor are serialized on its receive port.  (That replicas of one
    task occupy distinct processors is a shape invariant enforced by
    {!Schedule.create}, so no schedule value can break it.)
    [Ftsched_analysis.Lint] reports these violations as its error-level
    findings.

    Fault-tolerance itself (the schedule survives any [epsilon] crashes)
    is a dynamic property checked by [Ftsched_sim.Fault_check]. *)

type location = {
  l_task : Dag.task option;
  l_replica : int option;
  l_proc : Platform.proc option;
  l_span : (float * float) option;  (** time window the location refers to *)
}
(** Where a violation (or a lint finding) lives. *)

val no_loc : location

val replica_loc : Schedule.replica -> location
(** A replica's task, index, processor and execution span. *)

type violation = {
  check : string;  (** short identifier of the violated rule *)
  detail : string;  (** human-readable description with times and ids *)
  loc : location;
      (** Per-replica checks ([duration], [precedence], every supply
          check, ...) locate the replica they name: its task, index,
          processor and execution span.  Port and link checks locate the
          offending message leg: its source task and replica, the port's
          processor (the sender for [one-port-send] and [one-port-link],
          the receiver for [one-port-recv]) and the conflicting interval. *)
}

val run : Schedule.t -> violation list
(** All violations; the empty list means the schedule is valid.  The
    link constraint (1) is checked per {e physical} link of the
    schedule's platform ({!Platform.route_link}): on a routed platform,
    routes sharing a link must not overlap. *)

val is_valid : Schedule.t -> bool

val check_exn : Schedule.t -> unit
(** Raises [Failure] listing every violation, if any. *)

val pp_violation : Format.formatter -> violation -> unit

(** {1 Interval sweeps}

    Thin wrappers over [Ftsched_util.Intervals] producing [violation]
    records; exposed so analyses and tests can exercise the exact sweep
    semantics the validator uses.  Intervals are [(start, finish,
    payload)] triples; zero-length intervals (within [Flt.eps]) never
    conflict. *)

val overlap_violations :
  check:string ->
  describe:('a -> string) ->
  locate:('a -> location) ->
  (float * float * 'a) list ->
  violation list
(** One violation per interval that starts strictly inside another,
    located by [locate] on that interval's payload with the interval as
    its span. *)

val depth_violations :
  capacity:int ->
  check:string ->
  describe:('a -> string) ->
  locate:('a -> location) ->
  (float * float * 'a) list ->
  violation list
(** One violation per interval whose start raises the overlap depth above
    [capacity].  [capacity = 1] degenerates to {!overlap_violations}. *)
