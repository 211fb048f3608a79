(** Small helpers for floating-point schedule arithmetic.

    Schedule times are sums and maxima of products of uniform random draws;
    validation must compare them robustly.  [eps] is the tolerance shared by
    the whole code base so that the schedule validator and the replay
    simulator agree on what "simultaneous" means. *)

val eps : float
(** Absolute tolerance used throughout ([1e-9]). *)

val approx_eq : ?tol:float -> float -> float -> bool
(** [approx_eq a b] iff [|a - b| <= tol] (default {!eps}). *)

val leq : ?tol:float -> float -> float -> bool
(** [leq a b] iff [a <= b + tol]: less-or-approximately-equal. *)

val geq : ?tol:float -> float -> float -> bool

val fmax : float -> float -> float
(** [fmax x y] equals [Float.max x y] whenever neither operand is nan
    ([fmax (-0.) 0.] and [fmax 0. (-0.)] are [+0.]), without the C calls
    [Float.max] makes: for unboxed inner loops such as CAFT's placement
    bounds, once inlined (the release profile inlines it across
    libraries; the dev profile's [-opaque] does not).  Unspecified on
    nan. *)

val fmin : float -> float -> float
(** [fmin x y] equals [Float.min x y] whenever neither operand is nan
    ([fmin (-0.) 0.] and [fmin 0. (-0.)] are [-0.]).  Unspecified on
    nan. *)

val max_list : float list -> float
(** Maximum; [neg_infinity] on the empty list. *)

val min_list : float list -> float
(** Minimum; [infinity] on the empty list. *)

val clamp : lo:float -> hi:float -> float -> float
