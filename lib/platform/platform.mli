(** Heterogeneous target platforms.

    Section 2 of the paper: a finite set of processors
    [P = {P1, ..., Pm}], fully connected by a dedicated network.  Link
    heterogeneity is captured by the unit delay [d(Pk, Ph)] — the time to
    ship one unit of data from [Pk] to [Ph] — with [d(Pk, Pk) = 0] so that
    co-located tasks communicate for free.

    A platform also owns its interconnect: {!create} builds the paper's
    clique, {!routed} (called by [Topology.platform] only) a sparse one,
    and every scheduler, check and replay follows its routes.

    A platform is purely about communication; per-task execution times
    live in {!Costs} because they are indexed by the tasks of a specific
    DAG. *)

type proc = int
(** Processor identifier in [\[0, proc_count - 1\]]. *)

type t

val create : delays:float array array -> t
(** [create ~delays] builds a platform over [m = Array.length delays]
    processors where [delays.(k).(h)] is [d(Pk, Ph)].  Raises
    [Invalid_argument] if the matrix is not square, a delay is negative or
    NaN, or a diagonal entry is non-zero. *)

val routed :
  delays:float array array ->
  link_count:int ->
  routes:int list array array ->
  t
(** [create ~delays] over [link_count] directed physical links, where a
    message from [src] to [dst] reserves every link of
    [routes.(src).(dst)] for its whole duration.  Raises
    [Invalid_argument] as {!create} does, or on a link id out of range. *)

val uniform : m:int -> delay:float -> t
(** Homogeneous network: every distinct pair has unit delay [delay]. *)

val proc_count : t -> int
(** [m], the number of processors. *)

val delay : t -> proc -> proc -> float
(** [delay p k h] is [d(Pk, Ph)]; zero when [k = h]. *)

val comm_time : t -> src:proc -> dst:proc -> volume:float -> float
(** [W = volume * d(src, dst)], the paper's communication weight. *)

val procs : t -> proc list
(** [\[0; ...; m-1\]]. *)

val mean_delay : t -> float
(** Mean unit delay over ordered pairs of distinct processors; [0.] when
    [m < 2].  Used for the average edge weights in task priorities. *)

val max_delay : t -> float
(** Slowest unit delay over ordered pairs of distinct processors; [0.]
    when [m < 2].  Used by the paper's granularity definition. *)

(** {1 Interconnect} *)

val is_clique : t -> bool
(** Not built by {!routed}. *)

val link_count : t -> int
(** [m * m] on the clique, whose link [src * m + dst] carries
    [src -> dst]. *)

val route_length : t -> proc -> proc -> int
(** Links from [src] to [dst]: [1] on the clique. *)

val route_link : t -> proc -> proc -> int -> int
(** [route_link t src dst i] is the [i]-th; neither lookup allocates. *)
