let uniform_procs rng ~m ~count =
  Rng.sample_without_replacement rng (min count m) m

let timed rng ~m ~count ~horizon =
  List.map
    (fun p -> (p, Rng.float rng horizon))
    (uniform_procs rng ~m ~count)

(* -- crash rows --------------------------------------------------------- *)

type mode = From_start | Timed of float

let clear_row rows ~m j = Array.fill rows (j * m) m infinity

let check_proc ~m p =
  if p < 0 || p >= m then invalid_arg "Scenario: processor out of range"

let write_from_start rows ~m j procs =
  clear_row rows ~m j;
  List.iter
    (fun p ->
      check_proc ~m p;
      rows.((j * m) + p) <- neg_infinity)
    procs

let write_timed rows ~m j crashes =
  clear_row rows ~m j;
  List.iter
    (fun (p, tau) ->
      check_proc ~m p;
      let i = (j * m) + p in
      rows.(i) <- Float.min rows.(i) tau)
    crashes

let draw_row rng ~count ~mode rows ~m j =
  if count < 0 then invalid_arg "Scenario.draw_row: negative count";
  clear_row rows ~m j;
  let base = j * m in
  (* Floyd's algorithm with [Rng.sample_without_replacement]'s draws,
     marking the chosen processors in the row itself; then the crash
     instants in increasing processor order, as [timed] maps over the
     sorted sample. *)
  for i = m - min count m to m - 1 do
    let r = Rng.int rng (i + 1) in
    let p = if rows.(base + r) = neg_infinity then i else r in
    rows.(base + p) <- neg_infinity
  done;
  match mode with
  | From_start -> ()
  | Timed horizon ->
      for i = base to base + m - 1 do
        if rows.(i) = neg_infinity then rows.(i) <- Rng.float rng horizon
      done

(* -- from-start crash sets --------------------------------------------- *)

let set_bits = Sys.int_size - 1
let set_words ~m = max 1 ((m + set_bits - 1) / set_bits)

let read_set rows ~m j set =
  Array.fill set 0 (Array.length set) 0;
  let base = j * m in
  for p = 0 to m - 1 do
    if rows.(base + p) = neg_infinity then begin
      let w = p / set_bits in
      set.(w) <- set.(w) lor (1 lsl (p mod set_bits))
    end
  done

let write_set rows ~m j set =
  clear_row rows ~m j;
  let base = j * m in
  for p = 0 to m - 1 do
    if set.(p / set_bits) land (1 lsl (p mod set_bits)) <> 0 then
      rows.(base + p) <- neg_infinity
  done
