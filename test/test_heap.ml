(* Unit tests for the binary heap. *)

let int_heap () = Heap.create ~cmp:compare

let test_empty () =
  let h = int_heap () in
  Helpers.check_bool "is_empty" true (Heap.is_empty h);
  Helpers.check_int "length" 0 (Heap.length h);
  Helpers.check_bool "pop none" true (Heap.pop h = None);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h))

let test_ordering () =
  let h = int_heap () in
  List.iter (Heap.add h) [ 5; 1; 4; 1; 3; 9; 2 ];
  Helpers.check_int "length" 7 (Heap.length h);
  let drained = List.filter_map (fun _ -> Heap.pop h) [ (); (); (); (); (); (); () ] in
  Helpers.check_bool "drains sorted" true (drained = [ 1; 1; 2; 3; 4; 5; 9 ]);
  Helpers.check_bool "empty after drain" true (Heap.is_empty h)

let test_max_heap_via_cmp () =
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.add h) [ 2; 8; 5 ];
  Helpers.check_bool "max first" true (Heap.pop h = Some 8)

let test_random_against_sort () =
  let rng = Rng.create 42 in
  for _ = 1 to 20 do
    let n = Rng.int rng 200 in
    let xs = List.init n (fun _ -> Rng.int rng 1000) in
    let h = int_heap () in
    List.iter (Heap.add h) xs;
    let drained = List.map (fun _ -> Heap.pop_exn h) xs in
    Helpers.check_bool "heap sorts like List.sort" true
      (drained = List.sort compare xs)
  done

let test_interleaved_ops () =
  let h = int_heap () in
  Heap.add h 5;
  Heap.add h 3;
  Helpers.check_bool "pop 3" true (Heap.pop h = Some 3);
  Heap.add h 1;
  Heap.add h 4;
  Helpers.check_bool "pop 1" true (Heap.pop h = Some 1);
  Helpers.check_bool "pop 4" true (Heap.pop h = Some 4);
  Helpers.check_bool "pop 5" true (Heap.pop h = Some 5);
  Helpers.check_bool "pop none" true (Heap.pop h = None)

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "max-heap comparator" `Quick test_max_heap_via_cmp;
    Alcotest.test_case "random vs sort" `Quick test_random_against_sort;
    Alcotest.test_case "interleaved add/pop" `Quick test_interleaved_ops;
  ]
