(** The request vocabulary: one scheduling request, the names of its
    schedulers and communication models, and its defaults.  The CLI's
    options and the serve daemon's request parameters both read it, so
    they accept the same names, fill in the same defaults and build the
    same schedule.  Schedule files and reports spell a model with
    {!Netstate.model_to_string} instead ("macro-dataflow", not
    "macro").  The daemon hashes these names into its cache keys. *)

type algo = Caft | Ftsa | Ftbar | Heft

val algos : (string * algo) list
(** caft, ftsa, ftbar, heft. *)

val models : (string * Netstate.model) list
(** one-port, macro, multiport-2, multiport-4. *)

val algo_name : algo -> string

val model_name : Netstate.model -> string
(** Raises [Invalid_argument] for a model outside {!models}. *)

type t = {
  seed : int;  (** drives the instance and the schedulers' tie-breaking *)
  family : string;  (** one of {!Instance.families} *)
  tasks : int;
  m : int;  (** processors *)
  epsilon : int;  (** processor failures to tolerate (HEFT ignores it) *)
  granularity : float;
  algo : algo;
  model : Netstate.model;
}

val default : t
(** Seed 1, random family, 40 tasks, m = 10, epsilon 1, granularity 1.0,
    CAFT, one-port. *)

val instance : t -> (Dag.t * Costs.t, string) result
(** {!Instance.make} on the request's seed, family, sizes and
    granularity. *)

val schedule : t -> Costs.t -> Schedule.t
(** Schedule [costs] with the request's algorithm, model, seed and
    epsilon; each front end validates the request first. *)
