(** Fixed-universe bit sets.

    Used for the processor {e support sets} of the CAFT scheduler: the set
    of processors a replica's completion transitively depends on.  The
    universe (number of processors) is fixed at creation; operations never
    allocate beyond one machine word per 63 universe elements. *)

type t

val create : int -> t
(** [create n] is the empty subset of [\[0, n-1\]].  Raises
    [Invalid_argument] on negative [n]. *)

val singleton : int -> int -> t
(** [singleton n i] is [{i}] in universe [n]. *)

val copy : t -> t
val add : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int

val cardinal_union : t -> t -> int
(** [cardinal_union a b] is [cardinal (union a b)] without materializing
    the union — the admissibility test of the placement inner loop. *)

val equal_singleton : t -> int -> bool
(** [equal_singleton t i] iff [t] is exactly [{i}], without allocating
    the singleton. *)

val clear : t -> unit
(** Remove every element, in place.  One [Bytes.fill]; lets a scratch set
    be reused across scenarios without reallocating. *)

val union_into : into:t -> t -> unit
(** [union_into ~into s] adds every element of [s] to [into].  The two
    sets must share the universe size. *)

val union : t -> t -> t

val disjoint : t -> t -> bool
(** No common element. *)

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val elements : t -> int list
val iter : (int -> unit) -> t -> unit
val of_list : int -> int list -> t
val complement_elements : t -> int list
(** Elements of the universe {e not} in the set. *)

val pp : Format.formatter -> t -> unit
