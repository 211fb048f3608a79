(* Unit tests for the deterministic splittable RNG. *)

let test_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Helpers.check_bool "same seed, same stream" true (Rng.bits64 a = Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Helpers.check_bool "different seeds diverge" true (!same < 4)

let test_copy_independent () =
  let a = Rng.create 5 and b = Rng.create 5 in
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 b);
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Helpers.check_bool "one seed continues the same stream" true (xa = xb);
  ignore (Rng.bits64 b);
  let xa2 = Rng.bits64 a in
  let xb2 = Rng.bits64 b in
  (* streams advanced independently by different amounts *)
  Helpers.check_bool "copies advance independently" true (xa2 <> xb2)

let test_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  (* drawing from the child must not perturb the parent determinism *)
  let parent2 = Rng.create 9 in
  let _child2 = Rng.split parent2 in
  for _ = 1 to 10 do
    ignore (Rng.bits64 child)
  done;
  Helpers.check_bool "parent unaffected by child draws" true
    (Rng.bits64 parent = Rng.bits64 parent2)

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Helpers.check_bool "int in [0,10)" true (x >= 0 && x < 10)
  done;
  for _ = 1 to 1000 do
    let x = Rng.int_in rng (-5) 5 in
    Helpers.check_bool "int_in inclusive" true (x >= -5 && x <= 5)
  done

let test_int_covers_range () =
  let rng = Rng.create 3 in
  let seen = Array.make 6 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 6) <- true
  done;
  Helpers.check_bool "all values reachable" true (Array.for_all Fun.id seen)

let test_int_rejects () =
  Alcotest.check_raises "int 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 1) 0));
  Alcotest.check_raises "int_in empty range" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in (Rng.create 1) 3 2))

let test_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Helpers.check_bool "float in [0,2.5)" true (x >= 0. && x < 2.5)
  done;
  for _ = 1 to 1000 do
    let x = Rng.float_in rng 0.5 1.0 in
    Helpers.check_bool "float_in in [0.5,1)" true (x >= 0.5 && x < 1.0)
  done

let test_float_mean () =
  let rng = Rng.create 21 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng 1.0
  done;
  let mean = !sum /. float_of_int n in
  Helpers.check_bool "uniform mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

(* [Helpers.coin] and [Helpers.pick] draw the test data of the seeded
   suites (the serve fault harness pins one exact report). *)

let test_bool_balanced () =
  let rng = Rng.create 31 in
  let trues = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Helpers.coin rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  Helpers.check_bool "coin roughly fair" true (ratio > 0.45 && ratio < 0.55)

let test_pick () =
  let rng = Rng.create 4 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let picked = Helpers.pick rng arr in
    Helpers.check_bool "pick returns element" true
      (Array.exists (fun x -> x = picked) arr)
  done;
  Alcotest.check_raises "pick empty"
    (Invalid_argument "Helpers.pick: empty array") (fun () ->
      ignore (Helpers.pick rng [||]))

let test_pick_list_pinned () =
  (* Pinned draw sequence of picks from a list: each pick consumes
     exactly one [Rng.int], so these values must never shift — the fault
     harness's pinned report depends on the stream staying put. *)
  let pick_list rng l = Helpers.pick rng (Array.of_list l) in
  let rng = Rng.create 42 in
  let l = [ 3; 1; 4; 1; 5; 9; 2; 6; 5; 3; 5 ] in
  let expected = [ 9; 5; 1; 1; 5; 5; 1; 5; 9; 3; 3; 3 ] in
  List.iter
    (fun e -> Helpers.check_int "pick_list int sequence" e (pick_list rng l))
    expected;
  let l2 = [ "a"; "b"; "c" ] in
  let expected2 = [ "c"; "c"; "a"; "c"; "c"; "a"; "a"; "c" ] in
  List.iter
    (fun e ->
      Alcotest.(check string) "pick_list string sequence" e (pick_list rng l2))
    expected2;
  (* and it still draws even for singleton lists (one int consumed) *)
  let a = Rng.create 42 and b = Rng.create 42 in
  ignore (pick_list a [ 0 ]);
  ignore (Rng.int b 1);
  Helpers.check_bool "singleton consumes one draw" true
    (Rng.bits64 a = Rng.bits64 b)

let test_shuffle_permutation () =
  let rng = Rng.create 17 in
  let l = List.init 20 Fun.id in
  let shuffle l =
    let a = Array.of_list l in
    Rng.shuffle_in_place rng a;
    Array.to_list a
  in
  let s = shuffle l in
  Helpers.check_bool "shuffle is a permutation" true
    (List.sort compare s = l);
  (* with 20 elements, the identity permutation is essentially impossible *)
  let different = ref false in
  for _ = 1 to 5 do
    if shuffle l <> l then different := true
  done;
  Helpers.check_bool "shuffle shuffles" true !different

let test_sample_without_replacement () =
  let rng = Rng.create 8 in
  for _ = 1 to 200 do
    let k = Rng.int rng 6 and n = 10 in
    let s = Rng.sample_without_replacement rng k n in
    Helpers.check_int "sample size" k (List.length s);
    Helpers.check_bool "sample distinct" true
      (List.length (List.sort_uniq compare s) = k);
    Helpers.check_bool "sample in range" true
      (List.for_all (fun x -> x >= 0 && x < n) s);
    Helpers.check_bool "sample sorted" true (List.sort compare s = s)
  done;
  Helpers.check_int "k = n returns everything" 10
    (List.length (Rng.sample_without_replacement rng 10 10))

let test_sample_uniformity () =
  (* every element should appear in a 1-of-4 sample about 1/4 of the time *)
  let rng = Rng.create 55 in
  let counts = Array.make 4 0 in
  let n = 8000 in
  for _ = 1 to n do
    List.iter (fun i -> counts.(i) <- counts.(i) + 1)
      (Rng.sample_without_replacement rng 1 4)
  done;
  Array.iter
    (fun c ->
      let ratio = float_of_int c /. float_of_int n in
      Helpers.check_bool "roughly uniform" true (ratio > 0.2 && ratio < 0.3))
    counts

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "int rejects bad bounds" `Quick test_int_rejects;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
    Alcotest.test_case "pick" `Quick test_pick;
    Alcotest.test_case "pick_list pinned sequence" `Quick test_pick_list_pinned;
    Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample without replacement" `Quick
      test_sample_without_replacement;
    Alcotest.test_case "sample uniformity" `Quick test_sample_uniformity;
  ]
