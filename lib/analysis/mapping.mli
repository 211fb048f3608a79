(** Proposition 5.1 verifier: one-to-one mappings and message-count
    bounds.

    The paper proves that CAFT books at most [e(epsilon+1)] messages when
    every join uses a {e one-to-one mapping} — replica [i] of a task fed
    by exactly one replica of each predecessor, distinct replicas feeding
    distinct replicas — which it achieves on fork graphs and out-forests,
    and at most [e(epsilon+1)^2] in the general fallback where every
    replica receives from {e all} [epsilon+1] replicas of every
    predecessor.  This module classifies every join of a schedule and
    checks the corresponding bounds, cross-referencing the out-forest
    predicate of [Classify]. *)

type join_class =
  | One_to_one
      (** every successor replica has exactly one supplier and no two
          share it: an injective replica-to-replica mapping *)
  | Fallback
      (** every successor replica is supplied by all [epsilon+1]
          predecessor replicas *)
  | Mixed
      (** well-formed but neither pattern; still possibly resistant,
          counted against the quadratic bound *)
  | Invalid
      (** some successor replica has no supplier for this predecessor *)

type join = {
  jn_pred : Dag.task;
  jn_succ : Dag.task;
  jn_class : join_class;
  jn_messages : int;  (** inter-processor messages booked on this join *)
}

type report = {
  mp_epsilon : int;
  mp_joins : join array;  (** in DAG edge order *)
  mp_total_messages : int;  (** [Schedule.message_count] *)
  mp_linear_bound : int;  (** [e(epsilon+1)] *)
  mp_quadratic_bound : int;  (** [e(epsilon+1)^2] *)
  mp_all_one_to_one : bool;
  mp_within_linear : bool;  (** total [<= e(epsilon+1)] *)
  mp_within_quadratic : bool;  (** total [<= e(epsilon+1)^2] *)
  mp_out_forest : bool;
      (** [Classify.is_out_forest] — the graphs Proposition 5.1 promises
          the linear bound for *)
}

val verify : Schedule.t -> report
(** Classify every join and check the bounds.  A schedule of an
    out-forest whose joins are all one-to-one must satisfy the linear
    bound; every well-formed schedule must satisfy the quadratic one. *)

val class_to_string : join_class -> string

val count : report -> join_class -> int
(** Number of joins of the given class. *)
