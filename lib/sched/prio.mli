(** Free-task management for list scheduling (Algorithm 5.1 scaffolding).

    Maintains the list [alpha] of free tasks — unscheduled tasks whose
    predecessors are all scheduled — ordered by the priority
    [tl(t) + bl(t)] of Section 5.  Top levels are {e dynamic}: when a task
    is scheduled, the top level of each successor is refreshed with the
    task's achieved completion time (the "current partially clustered
    DAG"), so the priority of a task is fixed at the moment it becomes
    free.  Ties are broken randomly but deterministically, by a tiebreak
    drawn per task from the supplied generator. *)

type t

val create : rng:Rng.t -> Costs.t -> t
(** Computes static levels, seeds the free list with the entry tasks. *)

val pop : t -> Dag.task option
(** Remove and return the free task with the highest priority ([H(alpha)]
    in the paper); [None] when no task is free.  If [None] while
    {!remaining} is positive, the caller forgot {!mark_scheduled}. *)

val free_count : t -> int

val remaining : t -> int
(** Number of tasks not yet marked scheduled. *)

val is_done : t -> bool

val priority : t -> Dag.task -> float
(** Current priority [tl(t) + bl(t)] with the dynamic top level. *)

val mark_scheduled : t -> Dag.task -> completion:float -> unit
(** Declare the popped task scheduled, with [completion] its achieved
    completion time (the earliest replica finish).  Updates successor top
    levels and releases the successors that become free.  Raises
    [Invalid_argument] if the task is not currently popped-unscheduled or
    was already marked. *)
