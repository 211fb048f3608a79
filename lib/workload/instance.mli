(** Named problem instances: the (DAG, costs) pair behind one seed.

    The CLI and the serve daemon read their generation parameters and
    defaults from one request module ([Request], experiments library) and
    must build byte-identical instances from them: a cached serve result
    is only valid if the daemon reconstructs exactly the instance the CLI
    would.  This module builds them — the family dispatch table and the
    seeded constructor — with [result]-typed errors, so bad input from a
    network request or the command line never raises. *)

val families : string list
(** Accepted [family] names, in documentation order: random, fork, join,
    chain, out-tree, fork-join, stencil, gauss, butterfly, cholesky,
    staged, pipelines. *)

val make :
  ?seed:int ->
  ?family:string ->
  ?tasks:int ->
  ?m:int ->
  ?granularity:float ->
  unit ->
  (Dag.t * Costs.t, string) result
(** [make ()] draws the DAG and a random heterogeneous platform + cost
    matrix from one root RNG ([seed], default 1), rescaled to the target
    [granularity] (default 1.0) — byte-identical to the CLI's
    [--seed/--family/--tasks/-m/--granularity] instance.  Defaults:
    family [random], 40 tasks, 10 processors, as in [Request.default].
    [Error] (instead of an exception) on an unknown family, non-positive
    sizes, or an instance without communication ({!no_communication}). *)

val costs :
  Rng.t -> m:int -> granularity:float -> Dag.t -> (Costs.t, string) result
(** {!make}'s platform and costs for [dag]; [Error no_communication] on
    one processor or no data on any edge. *)

val no_communication : string
