(** Imperative binary heap with a user-supplied ordering.

    Used for the free-task priority lists of the list schedulers (the
    paper's sorted list [alpha] with head function [H]) and for the event
    queue of the fail-stop replay simulator.  Operations are O(log n). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap whose minimum is taken w.r.t. [cmp].
    For a max-heap, negate the comparison. *)

val with_capacity : cmp:('a -> 'a -> int) -> dummy:'a -> int -> 'a t
(** [with_capacity ~cmp ~dummy n] is an empty heap with backing storage
    for [n] elements already allocated (filled with [dummy]), so the
    first [n] [add]s never resize.  Raises [Invalid_argument] on
    negative [n]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}. Raises [Invalid_argument] on an empty heap. *)
