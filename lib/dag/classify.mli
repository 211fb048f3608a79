(** Structural classification of task graphs.

    Proposition 5.1 of the paper bounds CAFT's message count by
    [e(epsilon+1)] for fork and out-forest graphs; [Mapping] selects the
    out-forests the proposition applies to. *)

val is_out_forest : Dag.t -> bool
(** Every task has in-degree at most one (the paper's "outforest"). *)
