type 'a overlap = {
  ov_running : 'a;
  ov_running_until : float;
  ov_starter : 'a;
  ov_starts : float;
}

let tol = Flt.eps

let overlaps ~bounds intervals =
  let sorted =
    List.sort
      (fun a b -> compare (fst (bounds a)) (fst (bounds b)))
      intervals
  in
  (* Sweep with the furthest finish seen so far, so containment of several
     later intervals is also caught. *)
  let rec go acc frontier = function
    | [] -> List.rev acc
    | x :: rest ->
        let s, f = bounds x in
        let acc =
          match frontier with
          | Some (fmax, running) when fmax > s +. tol && f > s +. tol ->
              {
                ov_running = running;
                ov_running_until = fmax;
                ov_starter = x;
                ov_starts = s;
              }
              :: acc
          | _ -> acc
        in
        let frontier =
          match frontier with
          | Some (fmax, _) when fmax >= f -> frontier
          | _ -> Some (f, x)
        in
        go acc frontier rest
  in
  go [] None sorted

let exceeding ~capacity ~bounds intervals =
  let events =
    List.concat_map
      (fun x ->
        let s, f = bounds x in
        if f -. s <= tol then []
        else [ (s +. tol, 1, x); (f -. tol, -1, x) ])
      intervals
  in
  let events =
    List.sort (fun (t1, d1, _) (t2, d2, _) -> compare (t1, d1) (t2, d2)) events
  in
  let depth = ref 0 in
  let bad = ref [] in
  List.iter
    (fun (_, d, x) ->
      depth := !depth + d;
      if d > 0 && !depth > capacity then
        let s, f = bounds x in
        bad := (x, s, f) :: !bad)
    events;
  List.rev !bad

let gaps ~bounds intervals =
  let sorted =
    List.filter_map
      (fun x ->
        let s, f = bounds x in
        if f -. s <= tol then None else Some (s, f))
      intervals
    |> List.sort compare
  in
  let rec go acc frontier = function
    | [] -> List.rev acc
    | (s, f) :: rest ->
        let acc = if s > frontier +. tol then (frontier, s) :: acc else acc in
        go acc (Float.max frontier f) rest
  in
  match sorted with [] -> [] | (s, f) :: rest -> go [] (Float.max s f) rest
