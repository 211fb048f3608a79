(* Unit tests for fixed-universe bit sets. *)

let test_basic () =
  let s = Bitset.create 10 in
  Helpers.check_bool "empty" true (Bitset.is_empty s);
  Helpers.check_int "cardinal 0" 0 (Bitset.cardinal s);
  Bitset.add s 3;
  Bitset.add s 7;
  Bitset.add s 3;
  Helpers.check_bool "mem 3" true (Bitset.mem s 3);
  Helpers.check_bool "mem 7" true (Bitset.mem s 7);
  Helpers.check_bool "not mem 4" false (Bitset.mem s 4);
  Helpers.check_int "cardinal" 2 (Bitset.cardinal s);
  Bitset.remove s 3;
  Helpers.check_bool "removed" false (Bitset.mem s 3);
  Helpers.check_int "cardinal after remove" 1 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "add out of universe"
    (Invalid_argument "Bitset.add: out of universe") (fun () -> Bitset.add s 8);
  Alcotest.check_raises "mem negative"
    (Invalid_argument "Bitset.mem: out of universe") (fun () ->
      ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "negative universe"
    (Invalid_argument "Bitset.create: negative universe") (fun () ->
      ignore (Bitset.create (-1)))

let test_union_inter_disjoint () =
  let a = Bitset.of_list 12 [ 0; 3; 11 ] in
  let b = Bitset.of_list 12 [ 3; 5 ] in
  let u = Bitset.union a b in
  Helpers.check_bool "union elements" true
    (Bitset.elements u = [ 0; 3; 5; 11 ]);
  let i = Bitset.inter a b in
  Helpers.check_bool "inter elements" true (Bitset.elements i = [ 3 ]);
  Helpers.check_bool "not disjoint" false (Bitset.disjoint a b);
  Bitset.remove b 3;
  Helpers.check_bool "disjoint after removal" true (Bitset.disjoint a b);
  (* union_into mutates in place *)
  Bitset.union_into ~into:a b;
  Helpers.check_bool "union_into" true (Bitset.elements a = [ 0; 3; 5; 11 ])

let test_subset_equal () =
  let a = Bitset.of_list 9 [ 1; 2 ] in
  let b = Bitset.of_list 9 [ 1; 2; 5 ] in
  Helpers.check_bool "a subset b" true (Bitset.subset a b);
  Helpers.check_bool "b not subset a" false (Bitset.subset b a);
  Helpers.check_bool "a not equal b" false (Bitset.equal a b);
  Helpers.check_bool "a equal copy" true (Bitset.equal a (Bitset.copy a));
  Helpers.check_bool "empty subset of anything" true
    (Bitset.subset (Bitset.create 9) a)

let test_universe_mismatch () =
  let a = Bitset.create 4 and b = Bitset.create 5 in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset.union: universe mismatch") (fun () ->
      ignore (Bitset.union a b))

let test_copy_isolation () =
  let a = Bitset.of_list 6 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  Helpers.check_bool "copy does not leak back" false (Bitset.mem a 2)

let test_complement_and_singleton () =
  let s = Bitset.singleton 5 2 in
  Helpers.check_bool "singleton elements" true (Bitset.elements s = [ 2 ]);
  Helpers.check_bool "complement" true
    (Bitset.complement_elements s = [ 0; 1; 3; 4 ]);
  Helpers.check_int "universe size" 5 (Bitset.universe_size s)

let test_iter () =
  let s = Bitset.of_list 70 [ 0; 63; 64; 69 ] in
  (* crosses the byte boundaries *)
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  Helpers.check_bool "iter order" true (List.rev !acc = [ 0; 63; 64; 69 ]);
  Helpers.check_int "cardinal across words" 4 (Bitset.cardinal s)

let test_clear_and_unsafe () =
  (* the replay inner loops use clear + unsafe_add/unsafe_mem; they must
     agree with the checked operations on every in-universe index *)
  let n = 70 in
  let s = Bitset.of_list n [ 0; 7; 8; 63; 64; 69 ] in
  Bitset.clear s;
  Helpers.check_bool "clear empties" true (Bitset.is_empty s);
  Helpers.check_int "clear cardinal" 0 (Bitset.cardinal s);
  let rng = Rng.create 77 in
  let reference = Array.make n false in
  for _ = 1 to 200 do
    let i = Rng.int rng n in
    Bitset.unsafe_add s i;
    reference.(i) <- true
  done;
  for i = 0 to n - 1 do
    Helpers.check_bool "unsafe_mem = mem" (Bitset.mem s i)
      (Bitset.unsafe_mem s i);
    Helpers.check_bool "unsafe_add landed" reference.(i) (Bitset.mem s i)
  done;
  Bitset.clear s;
  for i = 0 to n - 1 do
    Helpers.check_bool "clear leaves nothing" false (Bitset.unsafe_mem s i)
  done

let test_large_universe_random () =
  let rng = Rng.create 31 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 100 in
    let l =
      List.sort_uniq compare (List.init (Rng.int rng 40) (fun _ -> Rng.int rng n))
    in
    let s = Bitset.of_list n l in
    Helpers.check_bool "of_list/elements roundtrip" true (Bitset.elements s = l);
    Helpers.check_int "cardinal matches" (List.length l) (Bitset.cardinal s)
  done

(* The set predicates run once per candidate in the CAFT placement loop:
   10^4 calls of each must not allocate per call (no closure, no
   [Array.iter] callback).  The bound is a constant, well below one word
   per call, that only the calls' own boxing of the result could reach. *)
let test_predicates_allocation_free () =
  let n = 100 in
  let a = Bitset.of_list n [ 1; 40; 70 ] and b = Bitset.of_list n [ 2; 41; 99 ] in
  let c = Bitset.of_list n [ 1; 40; 70; 99 ] in
  let calls = 10_000 in
  let words name f =
    let hits = ref 0 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      if f () then incr hits
    done;
    let spent = Gc.minor_words () -. before in
    if spent > 200. then
      Alcotest.failf "%s: %d calls allocated %.0f minor words" name calls spent;
    ignore (Sys.opaque_identity !hits)
  in
  words "disjoint" (fun () -> Bitset.disjoint a b);
  words "subset" (fun () -> Bitset.subset a c);
  words "equal" (fun () -> Bitset.equal a c);
  words "is_empty" (fun () -> Bitset.is_empty a);
  words "cardinal" (fun () -> Bitset.cardinal c = 4);
  words "equal_singleton" (fun () -> Bitset.equal_singleton a 1)

let suite =
  [
    Alcotest.test_case "add/mem/remove" `Quick test_basic;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "union/inter/disjoint" `Quick test_union_inter_disjoint;
    Alcotest.test_case "subset/equal" `Quick test_subset_equal;
    Alcotest.test_case "universe mismatch" `Quick test_universe_mismatch;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    Alcotest.test_case "complement/singleton" `Quick test_complement_and_singleton;
    Alcotest.test_case "iter across words" `Quick test_iter;
    Alcotest.test_case "clear + unsafe ops" `Quick test_clear_and_unsafe;
    Alcotest.test_case "random roundtrips" `Quick test_large_universe_random;
    Alcotest.test_case "predicates allocate nothing per call" `Quick
      test_predicates_allocation_free;
  ]
