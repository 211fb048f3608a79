(** Batched CAFT — the paper's Section 7 "further work" variant.

    "Instead of considering a single task (the one with highest priority)
    and assigning all its replicas to the currently best available
    resources, why not consider say, 10 ready tasks, and assign all their
    replicas in the same decision making procedure?  The idea would be
    \[...\] to better load balance processor and link usage."

    This scheduler keeps a window of the [window] highest-priority free
    tasks.  At each step it simulates, for every task of the window, the
    best first-replica placement under the {e current} network state, and
    schedules the task that can finish earliest — i.e. the one that best
    exploits the processors and links that are free right now — instead
    of blindly following priority order.  Placement itself is the same
    support-set one-to-one engine as {!Caft}, so fault tolerance is
    unchanged.

    With [window = 1] the algorithm degenerates to exactly {!Caft}. *)

val run : ?seed:int -> ?window:int -> epsilon:int -> Costs.t -> Schedule.t
(** [run ~epsilon costs] under the one-port model, with [window]
    defaulting to 10 (the paper's suggestion).  Raises [Invalid_argument]
    on [window < 1] or fewer than [epsilon + 1] processors. *)
