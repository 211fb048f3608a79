(** Descriptive statistics over float samples.

    Used by the experiment harness to aggregate each campaign point (the
    paper averages every plotted point over 60 random DAGs) and by the
    benchmark reports. *)

type summary = {
  n : int;  (** sample count *)
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  median : float;
  q1 : float;  (** first quartile *)
  q3 : float;  (** third quartile *)
}

val mean : float list -> float
(** Arithmetic mean; [nan] on the empty list. *)

val mean_array : float array -> float

val stddev : float list -> float
(** Sample standard deviation (n-1 denominator); [0.] for fewer than two
    samples. *)

val median : float list -> float
(** [nan] on the empty list. *)

val summarize : float list -> summary
(** Full summary.  Raises [Invalid_argument] on the empty list. *)

val confidence_95 : float list -> float
(** Half-width of the normal-approximation 95% confidence interval of the
    mean ([1.96 * stddev / sqrt n]); [0.] for fewer than two samples. *)

(** Streaming accumulator (Welford), for aggregation without retaining
    samples. *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val merge : t -> t -> t
  (** Combine two accumulators as if every sample had been [add]ed to one
      (Chan et al. pairwise update).  Exact when either side is empty;
      used to aggregate per-domain histogram shards. *)

  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
end
