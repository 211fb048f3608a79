(** Structured task-graph families.

    Fork and out-forest graphs are the families for which Proposition 5.1
    proves CAFT's [e(epsilon+1)] message bound; the other shapes are the
    classic kernels used by examples and tests (pipelines, fork-join
    reductions, wavefronts, Gaussian elimination). *)

val fork : ?volume:float -> int -> Dag.t
(** [fork n]: one source with [n] independent children ([n+1] tasks).
    All edges carry [volume] (default [100.]). *)

val join : ?volume:float -> int -> Dag.t
(** [join n]: [n] independent tasks feeding one sink. *)

val chain : int -> Dag.t
(** [chain n]: a pipeline of [n] tasks.  Raises on [n < 1]. *)

val out_tree : arity:int -> depth:int -> unit -> Dag.t
(** Complete out-tree: every internal node has [arity] children, [depth]
    levels of edges ([depth = 0] is a single task).  An out-forest, hence
    covered by Proposition 5.1. *)

val fork_join : int -> Dag.t
(** [fork_join n]: source, [n] parallel middle tasks, sink ([n+2]
    tasks). *)

val stencil_1d : ?volume:float -> width:int -> steps:int -> unit -> Dag.t
(** One-dimensional wavefront: [steps] rows of [width] tasks; task
    [(s, i)] depends on [(s-1, i-1)], [(s-1, i)] and [(s-1, i+1)] where
    they exist.  A classic iterative-stencil workload. *)

val staged_fanout : stages:int -> width:int -> unit -> Dag.t
(** Montage/Epigenomics-style scientific workflow: a source task, then
    [stages] successive rounds of [width] parallel tasks, each round
    gathered by a synchronization task that seeds the next round —
    [1 + stages * (width + 1)] tasks, [2 * stages * width] edges.  The
    repeated wide fan-out/fan-in is the frontier-width stress shape for
    large-n scheduling.  [stages >= 1], [width >= 1]. *)

val parallel_chains : lanes:int -> depth:int -> unit -> Dag.t
(** Pipeline bundle: one fork feeding [lanes] independent linear chains
    of [depth] tasks, joined by one sink — [lanes * depth + 2] tasks.
    The streaming-workflow shape of the Benoit–Rehn-Sonigo-Robert
    pipeline papers.  [lanes >= 1], [depth >= 1]. *)

val gaussian_elimination : ?volume:float -> int -> Dag.t
(** Task graph of Gaussian elimination on an [n x n] matrix: pivot tasks
    [piv_k] and update tasks [upd_(k,j)] for [k < j <= n-1], with the
    standard dependencies.  [n >= 2]. *)

val butterfly : int -> Dag.t
(** FFT butterfly over [2^k] points: [k + 1] ranks of [2^k] tasks; task
    [(rank, i)] depends on [(rank-1, i)] and [(rank-1, i xor 2^(rank-1))].
    [k >= 1]. *)

val cholesky : int -> Dag.t
(** Tiled Cholesky factorization over a [T x T] tile grid: POTRF / TRSM /
    SYRK / GEMM tasks with the standard dependencies — the classic
    irregular linear-algebra workflow.  [T >= 1]. *)
