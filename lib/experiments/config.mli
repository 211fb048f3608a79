(** Experiment configurations for the paper's evaluation (Section 6).

    Every figure of the paper is a sweep over task-graph granularity at a
    fixed platform size [m], replication level [epsilon] and effective
    crash count, averaged over 60 random DAGs per point. *)

type t = {
  id : string;  (** "fig1" .. "fig6" *)
  description : string;
  granularities : float list;
  m : int;  (** processors *)
  epsilon : int;  (** failures supported by the schedules *)
  crashes : int;  (** processors actually crashed in the (b)/(c) panels *)
  graphs_per_point : int;  (** 60 in the paper *)
}

val figure : int -> t
(** [figure n] for [n] in 1..6, exactly the paper's six figures:
    Figures 1/2/3 sweep range A with (m=10, eps=1, 1 crash),
    (m=10, eps=3, 2 crashes), (m=20, eps=5, 3 crashes); Figures 4/5/6
    repeat those platforms on range B.  Range A is the granularities 0.2
    to 2.0 in steps of 0.2, range B 1 to 10 in steps of 1.  Raises
    [Invalid_argument] otherwise. *)

val with_graphs_per_point : t -> int -> t
(** Override the sample count (e.g. for quick runs); raises
    [Invalid_argument] on non-positive values. *)
