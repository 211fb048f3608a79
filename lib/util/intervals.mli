(** Interval-sweep primitives shared by the schedule validator and the
    static analyzer.

    All functions take intervals as arbitrary payloads paired with a
    [bounds] projection to [(start, finish)].  Zero-length intervals
    (within the repository-wide {!Flt.eps}) never conflict: an
    instantaneous event at the boundary of a busy period is not an
    overlap. *)

type 'a overlap = {
  ov_running : 'a;  (** the earlier interval, still open *)
  ov_running_until : float;  (** its finish (the furthest seen so far) *)
  ov_starter : 'a;  (** the interval that starts inside it *)
  ov_starts : float;
}

val overlaps :
  bounds:('a -> float * float) -> 'a list -> 'a overlap list
(** Pairs of conflicting intervals, in sweep (chronological) order.  Each
    reported conflict pits the interval with the furthest finish seen so
    far against the next one starting strictly inside it, so containment
    of several later intervals is also caught. *)

val exceeding :
  capacity:int ->
  bounds:('a -> float * float) ->
  'a list ->
  ('a * float * float) list
(** Intervals whose start pushes the number of concurrently open
    intervals strictly beyond [capacity], with their bounds, in event
    order.  [capacity = 1] is the overlap condition of {!overlaps} (but
    reports only the offending interval, not the pair). *)

val gaps :
  bounds:('a -> float * float) -> 'a list -> (float * float) list
(** Maximal idle periods strictly between the merged busy spans of the
    intervals, in chronological order.  The open-ended periods before the
    first interval and after the last are not reported. *)
