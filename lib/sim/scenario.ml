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

let draw_block rng ~m ~count ~mode ~runs =
  if runs < 0 then invalid_arg "Scenario.draw_block: negative runs";
  if m < 1 then invalid_arg "Scenario.draw_block: empty platform";
  (* The generator stream is identical to drawing the same scenarios
     through [uniform_procs]/[timed]: [Rng.sample_into] replays Floyd's
     draws verbatim, and the crash instants are drawn in increasing
     processor order exactly as [timed] maps over the sorted sample.
     The loop runs left to right on purpose: [Array.init]'s evaluation
     order is unspecified and would scramble the stream. *)
  let rows = Array.create_float (runs * m) in
  let chosen = Bitset.create m in
  for j = 0 to runs - 1 do
    Rng.sample_into rng chosen (min count m);
    let procs = Bitset.elements chosen in
    match mode with
    | From_start -> write_from_start rows ~m j procs
    | Timed horizon ->
        write_timed rows ~m j
          (List.map (fun p -> (p, Rng.float rng horizon)) procs)
  done;
  rows
