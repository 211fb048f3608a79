(** Top levels, bottom levels and list-scheduling priorities.

    The paper (Section 5) prioritises free tasks by [tl(t) + bl(t)] where
    the top level [tl(t)] is the length of a longest path from an entry
    node to [t] (excluding [t]'s execution time) and the bottom level
    [bl(t)] the length of a longest path from [t] to an exit node
    (including [t]'s execution time).  Path lengths use {e average} node
    and edge weights: the node weight of [t] is the mean of [E(t, .)] over
    processors, the edge weight of [(u, v)] is the volume times the mean
    unit delay over distinct processor pairs (as in HEFT and FTSA). *)

type t

val compute : Costs.t -> t
(** Static levels of every task of the DAG attached to the costs. *)

val bottom_level : t -> Dag.task -> float
(** [bl(t)]; equals the average execution time for exit tasks. *)

val critical_path : t -> float
(** Length of a longest path through the average-weighted DAG,
    [max_t (tl(t) + bl(t))]; [0.] for the empty DAG. *)

val dynamic_top_levels : t -> float array
(** A fresh mutable copy of the top levels [tl(t)] (zero for entry
    tasks), for schedulers that update priorities as tasks get placed
    (Algorithm 5.1, line 21). *)
