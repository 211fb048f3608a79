let eps = 1e-9
let approx_eq ?(tol = eps) a b = Float.abs (a -. b) <= tol
let leq ?(tol = eps) a b = a <= b +. tol
let geq ?(tol = eps) a b = a >= b -. tol

(* [Float.max] and [Float.min] without their [sign_bit] calls, which
   ocamlopt emits as C calls.  Two equal operands only differ when they
   are zeros of mixed sign: their sum is [+0.] unless both are [-0.], so
   [x +. y] is the larger of two zeros and [-.(-.x +. -.y)] the
   smaller. *)
let[@inline] fmax (x : float) y =
  if y > x then y else if y = x && x = 0. then x +. y else x

let[@inline] fmin (x : float) y =
  if y < x then y else if y = x && x = 0. then -.(-.x +. -.y) else x

let max_list = List.fold_left Float.max neg_infinity
let min_list = List.fold_left Float.min infinity

let clamp ~lo ~hi x =
  if x < lo then lo else if x > hi then hi else x
