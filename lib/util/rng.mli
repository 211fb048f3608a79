(** Deterministic, splittable pseudo-random number generator.

    All experiments in this repository must be exactly reproducible from a
    single integer seed, independently of iteration order elsewhere in the
    program.  This module therefore provides an explicit-state generator
    (xoshiro256** seeded through splitmix64) instead of the ambient
    [Stdlib.Random] state.

    The generator is {e splittable}: [split t] derives an independent child
    stream, so that, e.g., every random DAG of a campaign gets its own
    stream and adding one more sample never perturbs the previous ones. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] draws from [t] and returns a fresh generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n-1\]].  Raises [Invalid_argument] if
    [n <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).  Raises
    [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)].  Raises
    [Invalid_argument] if [hi < lo]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle of the array, in place. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n-1\]], in increasing order.  Raises [Invalid_argument] if
    [k > n] or [k < 0]. *)
