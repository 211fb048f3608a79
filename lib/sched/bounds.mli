(** Lower bounds on the achievable latency of an instance.

    Scheduling DAGs with communication is NP-hard; these classical bounds
    put measured latencies in perspective (reports, sanity tests).  Both
    bounds ignore fault tolerance, so they also bound every fault-free
    schedule, and every zero-crash latency of a replicated schedule is
    bounded by... nothing in general (replication may delay the first
    copies), but in practice they calibrate the plots. *)

val critical_path : Costs.t -> float
(** Optimistic critical path: longest path where each task counts its
    {e fastest} execution over processors and edges cost zero (two tasks
    in precedence can always be co-located).  No schedule, under any
    communication model, finishes earlier. *)

val work : Costs.t -> float
(** Work bound: the sum over tasks of the fastest execution time divided
    by the number of processors — even perfect load balancing of one copy
    of every task cannot beat it. *)
