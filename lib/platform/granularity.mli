(** Task-graph granularity, Section 2 of the paper.

    For a DAG [G] and platform [P], the granularity [g(G, P)] is the ratio
    of the sum over tasks of the {e slowest} computation time of each task
    to the sum over edges of the {e slowest} communication time along each
    edge.  A graph with [g >= 1] is coarse grain, otherwise fine grain. *)

val compute : Costs.t -> float
(** [g(G, P)].  [infinity] when the DAG has no edges (or the network has a
    single processor), [0.] when it has no tasks. *)

val rescale_to : Costs.t -> float -> Costs.t
(** [rescale_to costs g] multiplies all execution costs by the unique
    positive factor that makes the granularity exactly [g].  Raises
    [Invalid_argument] if [g <= 0] or if the current granularity is zero
    or not finite (no edges / zero computations). *)
