(** Task execution costs on a heterogeneous platform.

    The paper's computational-heterogeneity function
    [E : V x P -> R+]: [E(t, Pk)] is the execution time of task [t] on
    processor [Pk].  A {!t} is always relative to one DAG and one
    platform and is immutable. *)

type t

val create : Dag.t -> Platform.t -> (Dag.task -> Platform.proc -> float) -> t
(** [create dag platform f] tabulates [f task proc] for every pair.
    Raises [Invalid_argument] if any cost is negative or NaN. *)

val of_matrix : Dag.t -> Platform.t -> float array array -> t
(** [of_matrix dag platform m] where [m.(task).(proc)] is the cost.
    The matrix is copied. *)

val exec : t -> Dag.task -> Platform.proc -> float
(** [E(t, Pk)]. *)

val mean_exec : t -> Dag.task -> float
(** Mean of [E(t, .)] over processors — the average node weight used by
    the top/bottom-level priorities. *)

val max_exec : t -> Dag.task -> float
(** Slowest execution of the task over processors, as used by the paper's
    granularity. *)

val min_exec : t -> Dag.task -> float

val scale : t -> float -> t
(** [scale t s] multiplies every execution cost by [s > 0] (used to reach
    a target granularity). *)

val dag : t -> Dag.t
val platform : t -> Platform.t
