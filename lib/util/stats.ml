type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  q1 : float;
  q3 : float;
}

let kahan_sum_array a =
  let sum = ref 0. and comp = ref 0. in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !comp in
    let t = !sum +. y in
    comp := t -. !sum -. y;
    sum := t
  done;
  !sum

let mean_array a =
  let n = Array.length a in
  if n = 0 then nan else kahan_sum_array a /. float_of_int n

let mean xs = mean_array (Array.of_list xs)

let variance xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = mean_array a in
    let dev = Array.map (fun x -> (x -. m) *. (x -. m)) a in
    kahan_sum_array dev /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let percentile_sorted p a =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile_sorted p a

let median xs = percentile 0.5 xs

let summarize xs =
  match xs with
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      {
        n = Array.length a;
        mean = mean_array a;
        stddev = stddev xs;
        min = a.(0);
        max = a.(Array.length a - 1);
        median = percentile_sorted 0.5 a;
        q1 = percentile_sorted 0.25 a;
        q3 = percentile_sorted 0.75 a;
      }

let confidence_95 xs =
  let n = List.length xs in
  if n < 2 then 0. else 1.96 *. stddev xs /. sqrt (float_of_int n)

module Acc = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.mean

  (* Chan et al. parallel variance combination.  Exact when one side is
     empty, so folding a single shard into a fresh accumulator preserves
     the sequential result bit for bit. *)
  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let na = float_of_int a.count and nb = float_of_int b.count in
      let n = na +. nb in
      let delta = b.mean -. a.mean in
      {
        count = a.count + b.count;
        mean = a.mean +. (delta *. (nb /. n));
        m2 = a.m2 +. b.m2 +. (delta *. delta *. (na *. nb /. n));
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
      }
    end

  let stddev t =
    if t.count < 2 then 0. else sqrt (t.m2 /. float_of_int (t.count - 1))

  let min t = t.min
  let max t = t.max
end
