(* xoshiro256** 1.0 (Blackman & Vigna), state initialised with splitmix64.
   Explicit state so that every consumer owns its stream. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  (* All-zero state is invalid for xoshiro; splitmix64 cannot produce four
     zero outputs in a row, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then { s0 = 1L; s1; s2; s3 }
  else { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let state = ref (bits64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then { s0 = 1L; s1; s2; s3 }
  else { s0; s1; s2; s3 }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = max_int in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
    let r = v mod n in
    if v - r > mask - n + 1 then draw () else r
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t x =
  (* 53 random bits mapped to [0, 1), then scaled. *)
  let bits = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bits /. 9007199254740992.0 *. x

let float_in t lo hi =
  if hi < lo then invalid_arg "Rng.float_in: empty range";
  lo +. float t (hi -. lo)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Floyd's algorithm: k draws, O(k) expected set operations. *)
  let module IS = Set.Make (Int) in
  let chosen = ref IS.empty in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    if IS.mem r !chosen then chosen := IS.add j !chosen
    else chosen := IS.add r !chosen
  done;
  IS.elements !chosen
