(** Weighted directed acyclic task graphs.

    This is the execution model of the paper (Section 2): a DAG
    [G = (V, E)] whose nodes are tasks and whose edges carry the data
    volume [V(ti, tj)] that task [ti] must send to task [tj].  Tasks are
    dense integer identifiers in [\[0, task_count - 1\]], which lets every
    downstream structure (cost matrices, schedules) use flat arrays.

    Values of type {!t} are immutable once built; construction goes
    through {!Builder} (or the {!make} convenience), which checks
    well-formedness — no duplicate or self edges, no cycles — and
    precomputes a topological order. *)

type task = int
(** Task identifier, dense in [\[0, task_count - 1\]]. *)

type t

exception Cycle of task list
(** Raised at build time when the edge set contains a cycle; the payload is
    one offending cycle, in order. *)

(** Incremental construction of a DAG. *)
module Builder : sig
  type dag := t
  type t

  val create : unit -> t

  val add_task : ?name:string -> t -> task
  (** Returns the fresh task's identifier (allocated densely from 0).
      [name] defaults to ["t<id>"]. *)

  val add_edge : t -> src:task -> dst:task -> volume:float -> unit
  (** Declares the precedence [src -> dst] with data volume [volume].
      Raises [Invalid_argument] on unknown endpoints, self edges, negative
      volumes, or a duplicate edge. *)

  val build : t -> dag
  (** Validates acyclicity (raising {!Cycle}) and freezes the graph. *)
end

val make :
  ?names:string array -> n:int -> edges:(task * task * float) list -> unit -> t
(** [make ~n ~edges ()] builds a DAG with tasks [0 .. n-1] and the given
    [(src, dst, volume)] edges.  Same validation as {!Builder}. *)

(** {1 Size} *)

val task_count : t -> int
(** [v = |V|]. *)

val edge_count : t -> int
(** [e = |E|]. *)

val name : t -> task -> string

(** {1 Adjacency} *)

val succs : t -> task -> (task * float) array
(** Immediate successors with edge volumes ({i do not mutate}). *)

val preds : t -> task -> (task * float) array
(** Immediate predecessors with edge volumes ({i do not mutate}). *)

val succ_tasks : t -> task -> task list
val pred_tasks : t -> task -> task list
val out_degree : t -> task -> int
val in_degree : t -> task -> int

val volume : t -> src:task -> dst:task -> float option
(** Edge volume if the edge exists. *)

val mem_edge : t -> src:task -> dst:task -> bool

val entries : t -> task list
(** Tasks without predecessors, in increasing id order. *)

val exits : t -> task list
(** Tasks without successors, in increasing id order. *)

(** {1 Orders and traversals} *)

val topological_order : t -> task array
(** A fixed topological order ({i do not mutate}); deterministic for a
    given construction sequence. *)

val reverse_topological_order : t -> task array

val fold_edges : (task -> task -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over all edges [(src, dst, volume)] in topological order of
    sources. *)

val iter_edges : (task -> task -> float -> unit) -> t -> unit

val fold_tasks : (task -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over task ids in increasing order. *)

(** {1 Structure queries} *)

val longest_path_length : t -> int
(** Number of {e nodes} on a longest (hop-count) path. *)

val transitive_closure_cap : int
(** Largest task count {!transitive_closure} accepts (10_000).  The
    reachability matrix is O(n²) words — a million-task DAG would need
    terabytes — so the quadratic analyses fail fast instead of OOMing.
    Large-n safe analyses: {!topological_order}, {!longest_path_length},
    {!entries}/{!exits}, degree queries, and every scheduler; not large-n
    safe: {!transitive_closure}, {!width}. *)

val transitive_closure : t -> bool array array
(** [reach.(i).(j)] iff there is a (possibly empty) path from [i] to [j];
    the diagonal is [true].  O(v·e) bitset-free computation, fine for the
    graph sizes of the paper.  Raises [Invalid_argument] (naming
    {!transitive_closure_cap}) beyond the cap. *)

val width : t -> int
(** The width [omega] of the DAG: the maximum number of pairwise
    independent tasks (maximum antichain of the precedence partial order).
    Computed exactly via Mirsky/Dilworth using a minimum path cover of the
    transitive closure (Hopcroft–Karp matching).  Inherits the
    {!transitive_closure_cap} task-count cap. *)
