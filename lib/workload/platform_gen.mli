(** Random heterogeneous platforms and cost matrices.

    Communication heterogeneity follows the paper: unit message delays of
    the links are uniform in [\[0.5, 1\]].  Computational heterogeneity is
    not specified by the paper; we use the standard "inconsistent
    heterogeneity" model [E(t, Pk) = base(t) * factor(t, Pk)] with
    [base(t)] uniform in [\[base_min, base_max\]] and [factor] uniform in
    [\[1 - het, 1 + het\]] (see DESIGN.md, Substitutions). *)

type params = {
  m : int;  (** number of processors *)
  delay_min : float;
  delay_max : float;
  base_min : float;  (** per-task base execution cost range *)
  base_max : float;
  heterogeneity : float;  (** per-processor factor spread, in [\[0, 1)] *)
}

val default : ?m:int -> unit -> params
(** The paper's values: delays in [\[0.5, 1\]]; bases in [\[50, 150\]]
    (same scale as message volumes — the granularity rescaling overrides
    the absolute scale anyway); heterogeneity 0.5.  [m] defaults to 10. *)

val platform : Rng.t -> params -> Platform.t
(** Fully connected platform with random per-link unit delays. *)

val instance : Rng.t -> ?granularity:float -> params -> Dag.t -> Costs.t
(** {!platform} plus a random execution-cost matrix for the DAG on it;
    when [granularity] is given, the execution costs are rescaled so that
    [g(G, P)] hits it exactly ({!Granularity.rescale_to}). *)
