(* Unit tests for descriptive statistics. *)

let test_mean () =
  Helpers.check_float "mean of singleton" 5. (Stats.mean [ 5. ]);
  Helpers.check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  Helpers.check_bool "mean of empty is nan" true (Float.is_nan (Stats.mean []))

let test_variance_stddev () =
  Helpers.check_float "variance of constant" 0. (Stats.variance [ 4.; 4.; 4. ]);
  (* sample variance of 2,4,4,4,5,5,7,9 is 32/7 *)
  let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Helpers.check_float "variance" (32. /. 7.) (Stats.variance xs);
  Helpers.check_float "stddev" (sqrt (32. /. 7.)) (Stats.stddev xs);
  Helpers.check_float "variance of single" 0. (Stats.variance [ 3. ])

let test_median_percentile () =
  Helpers.check_float "odd median" 3. (Stats.median [ 1.; 3.; 17. ]);
  Helpers.check_float "even median" 2.5 (Stats.median [ 1.; 2.; 3.; 4. ]);
  Helpers.check_float "p0 is min" 1. (Stats.percentile 0. [ 3.; 1.; 2. ]);
  Helpers.check_float "p100 is max" 3. (Stats.percentile 1. [ 3.; 1.; 2. ]);
  Helpers.check_float "p25 interpolates" 1.5 (Stats.percentile 0.25 [ 1.; 2.; 3. ]);
  Helpers.check_bool "median of empty is nan" true (Float.is_nan (Stats.median []))

let test_summarize () =
  let s = Stats.summarize [ 4.; 1.; 3.; 2. ] in
  Helpers.check_int "n" 4 s.Stats.n;
  Helpers.check_float "min" 1. s.Stats.min;
  Helpers.check_float "max" 4. s.Stats.max;
  Helpers.check_float "mean" 2.5 s.Stats.mean;
  Helpers.check_float "median" 2.5 s.Stats.median;
  Alcotest.check_raises "summarize empty"
    (Invalid_argument "Stats.summarize: empty sample") (fun () ->
      ignore (Stats.summarize []))

let test_confidence () =
  Helpers.check_float "ci of single sample" 0. (Stats.confidence_95 [ 1. ]);
  let ci = Stats.confidence_95 [ 1.; 2.; 3.; 4.; 5. ] in
  (* stddev = sqrt(2.5), n = 5 *)
  Helpers.check_float "ci formula" (1.96 *. sqrt 2.5 /. sqrt 5.) ci

let test_kahan () =
  (* naive summation of this series loses the small terms *)
  let xs = 1e16 :: List.init 100 (fun _ -> 1.) in
  let total = Stats.kahan_sum xs in
  Helpers.check_float "kahan keeps small terms" (1e16 +. 100.) total

let test_acc_matches_lists () =
  let rng = Rng.create 77 in
  let xs = List.init 500 (fun _ -> Rng.float rng 100.) in
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) xs;
  Helpers.check_int "acc count" 500 (Stats.Acc.count acc);
  Alcotest.(check (float 1e-6)) "acc mean" (Stats.mean xs) (Stats.Acc.mean acc);
  Alcotest.(check (float 1e-6)) "acc stddev" (Stats.stddev xs) (Stats.Acc.stddev acc);
  Helpers.check_float "acc min" (Flt.min_list xs) (Stats.Acc.min acc);
  Helpers.check_float "acc max" (Flt.max_list xs) (Stats.Acc.max acc)

let test_acc_empty () =
  let acc = Stats.Acc.create () in
  Helpers.check_int "empty count" 0 (Stats.Acc.count acc);
  Helpers.check_bool "empty mean nan" true (Float.is_nan (Stats.Acc.mean acc));
  Helpers.check_float "empty stddev" 0. (Stats.Acc.stddev acc)

(* [Flt.fmax]/[Flt.fmin] against [Float.max]/[Float.min], bit for bit:
   the pruning bounds of CAFT rely on the equality (DESIGN.md, "Candidate
   pruning").  Operands are drawn from the special values (both zeros,
   both infinities, extremes, subnormals), their negations and random
   floats, half the time as an equal pair. *)
let specials =
  [ 0.; -0.; 1.; -1.; infinity; neg_infinity; max_float; -.max_float;
    min_float; -.min_float; Float.succ 0.; Float.pred 0.; epsilon_float ]

let gen_operand =
  QCheck.Gen.(
    frequency
      [ (1, oneofl specials); (2, float_range (-1e6) 1e6); (1, float) ]
    >|= fun x -> if Float.is_nan x then 0. else x)

let prop_fmax_fmin (x, y) =
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  same (Flt.fmax x y) (Float.max x y) && same (Flt.fmin x y) (Float.min x y)

let qcheck_fmax_fmin =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2008 |])
    (QCheck.Test.make ~count:2000
       ~name:"Flt.fmax/fmin = Float.max/min on non-nan operands (qcheck)"
       (QCheck.make
          ~print:(fun (x, y) -> Printf.sprintf "(%h, %h)" x y)
          QCheck.Gen.(
            pair gen_operand gen_operand >>= fun (x, y) ->
            map (fun eq -> if eq then (x, x) else (x, y)) bool))
       prop_fmax_fmin)

let test_fmax_fmin_specials () =
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          Helpers.check_bool
            (Printf.sprintf "fmax/fmin %h %h" x y)
            true
            (prop_fmax_fmin (x, y)))
        specials)
    specials

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance and stddev" `Quick test_variance_stddev;
    Alcotest.test_case "median and percentiles" `Quick test_median_percentile;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "confidence interval" `Quick test_confidence;
    Alcotest.test_case "kahan summation" `Quick test_kahan;
    Alcotest.test_case "welford accumulator" `Quick test_acc_matches_lists;
    Alcotest.test_case "empty accumulator" `Quick test_acc_empty;
    Alcotest.test_case "fmax/fmin on special pairs" `Quick
      test_fmax_fmin_specials;
    qcheck_fmax_fmin;
  ]
