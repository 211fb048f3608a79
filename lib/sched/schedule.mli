(** Fault-tolerant schedules: the common output type of all schedulers.

    A schedule maps every task of a DAG onto [epsilon + 1] replicas placed
    on distinct processors (active replication, Section 2), and records
    every data supply each replica depends on — either a co-located
    predecessor replica or an inter-processor message with its booked link
    leg and serialized arrival.  The fail-stop replay simulator and the
    static validator both work from this record. *)

type supply =
  | Local of { l_pred : Dag.task; l_pred_replica : int; l_finish : float }
      (** Data produced by a predecessor replica on the same processor;
          available when that replica finishes. *)
  | Message of Netstate.message
      (** Inter-processor message as booked by {!Netstate.commit}. *)

type replica = {
  r_task : Dag.task;
  r_index : int;  (** replica number, [0 .. epsilon] *)
  r_proc : Platform.proc;
  r_start : float;
  r_finish : float;
  r_inputs : supply list;
      (** every supply booked for this replica; each predecessor of the
          task appears in at least one supply *)
}

type t

val create :
  algorithm:string ->
  epsilon:int ->
  model:Netstate.model ->
  costs:Costs.t ->
  replica list ->
  t
(** Packages the replicas produced by a scheduler.  Checks shape only
    (every task present with exactly [epsilon + 1] replicas on pairwise
    distinct processors, replica indices [0..epsilon]); temporal
    consistency is the business of {!Validate}.  Raises
    [Invalid_argument] on shape violations. *)

(** {1 Accessors} *)

val algorithm : t -> string
val epsilon : t -> int
val model : t -> Netstate.model

val costs : t -> Costs.t
val dag : t -> Dag.t
val platform : t -> Platform.t

val replicas : t -> Dag.task -> replica array
(** The [epsilon + 1] replicas of a task, by replica index
    ({i do not mutate}). *)

val replica : t -> Dag.task -> int -> replica

val all_replicas : t -> replica list
(** All replicas, tasks in increasing id order. *)

val on_proc : t -> Platform.proc -> replica list
(** Replicas placed on a processor, sorted by start time. *)

val messages : t -> Netstate.message list
(** Every inter-processor message of the schedule. *)

val message_count : t -> int
(** Number of inter-processor messages — the paper's communication-count
    metric ([e(epsilon+1)^2] worst case for FTSA/FTBAR, [e(epsilon+1)] for
    CAFT on out-forests). *)

(** {1 Latency} *)

val latency_zero_crash : t -> float
(** The schedule latency when no processor fails: the latest time at
    which at least one replica of each task has completed —
    [max over tasks of (min over replicas of finish)].  This is the
    paper's lower bound / "with 0 crash" metric. *)

val latency_upper_bound : t -> float
(** The pessimistic bound, "always achieved even with [epsilon]
    failures": the completion time of the last replica of each task —
    [max over tasks of (max over replicas of finish)]. *)

val makespan : t -> float
(** Synonym of {!latency_upper_bound}: when everything in the schedule
    runs, the time the last replica finishes. *)

(** {1 Rendering} *)

val pp_summary : Format.formatter -> t -> unit
(** One-paragraph summary: algorithm, sizes, latencies, message count. *)
