type report = {
  resists : bool;
  scenarios_checked : int;
  exhaustive : bool;
  counterexample : (Platform.proc list * Dag.task list) option;
  worst_latency : float;
  static_agrees : bool option;
}

let m_scenarios =
  Obs_metrics.counter ~help:"crash sets enumerated or sampled by check"
    "fault_check.scenarios"

(* -- crash-set enumeration --------------------------------------------- *)

(* [advance_subset] steps the index array [idx] of an increasing
   k-subset of [0, n-1] to its lexicographic successor; it returns
   [false] when [idx] was the last subset. *)
let advance_subset ~n ~k idx =
  let i = ref (k - 1) in
  while !i >= 0 && idx.(!i) = n - k + !i do
    decr i
  done;
  if !i < 0 then false
  else begin
    idx.(!i) <- idx.(!i) + 1;
    for j = !i + 1 to k - 1 do
      idx.(j) <- idx.(j - 1) + 1
    done;
    true
  end

let count_combinations n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then acc
      else
        let acc' = acc * (n - k + i) / i in
        if acc' < acc then max_int (* overflow *) else go acc' (i + 1)
    in
    go 1 1
  end

(* Lexicographic unranking (combinatorial number system): the [rank]-th
   increasing k-subset of [0, n-1], counting from 0 — the entry point of
   an enumeration shard.  Requires [0 <= rank < count_combinations n k],
   which the exhaustive check guarantees via [max_exhaustive], far below
   the saturation threshold of [count_combinations]. *)
let subset_at_rank ~n ~k rank =
  let idx = Array.make k 0 in
  let rank = ref rank in
  let next = ref 0 in
  for i = 0 to k - 1 do
    (* smallest element c >= next leaving more than [rank] subsets after
       fixing prefix..c *)
    let rec find c =
      let after = count_combinations (n - c - 1) (k - i - 1) in
      if after <= !rank then begin
        rank := !rank - after;
        find (c + 1)
      end
      else c
    in
    let c = find !next in
    idx.(i) <- c;
    next := c + 1
  done;
  idx

let subsets ~n ~k ~first count =
  let rec from idx i () =
    if i >= count then Seq.Nil
    else begin
      let next = Array.copy idx in
      ignore (advance_subset ~n ~k next);
      Seq.Cons (Array.to_list idx, from next (i + 1))
    end
  in
  if count <= 0 then Seq.empty else from (subset_at_rank ~n ~k first) 0

(* -- the check --------------------------------------------------------- *)

(* [scan_subsets c ~worst subsets] replays [subsets] in order and stops
   at the first one that loses a task: it returns the number of subsets
   consumed and that refuting subset, if any, after folding the
   completed latencies before it into [worst]. *)
let scan_subsets ~cancel c ~worst subsets =
  let refuted = ref None in
  let consumed =
    Replay.scan ~cancel c ~fill:Scenario.write_from_start
      ~consume:(fun procs (res : Replay.batch) j ->
        let lat = res.Replay.br_latency.(j) in
        if Float.is_nan lat then begin
          refuted := Some procs;
          false
        end
        else begin
          if Float.is_nan !worst || lat > !worst then worst := lat;
          true
        end)
      subsets
  in
  Obs_metrics.incr ~by:consumed m_scenarios;
  (consumed, !refuted)

let check ?(max_exhaustive = 20000) ?(samples = 1000) ?(seed = 7)
    ?(domains = 1) ?(cancel = Cancel.never) ?static ~epsilon sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let epsilon = min epsilon m in
  let total = count_combinations m epsilon in
  let exhaustive = total <= max_exhaustive in
  let checked = ref 0 in
  let counterexample = ref None in
  let worst = ref nan in
  if exhaustive then begin
    (* Shard the rank space into [domains] contiguous ranges.  Each shard
       stops at its own first counterexample; the combine step keeps the
       lowest-rank one, so the report cannot depend on [domains]: the
       scenarios at ranks below the winning rank are exactly those the
       sequential enumeration would have completed. *)
    let shards = max 1 (min domains total) in
    let bounds = Array.init (shards + 1) (fun i -> total * i / shards) in
    let run_shard i =
      Obs_prof.phase ~trace:false "check.shard" @@ fun () ->
      let start = bounds.(i) and stop = bounds.(i + 1) in
      (* the shard owns its compiled engine *)
      let c = Replay.compile sched in
      let sh_worst = ref nan in
      let consumed, refuted =
        scan_subsets ~cancel c ~worst:sh_worst
          (subsets ~n:m ~k:epsilon ~first:start (stop - start))
      in
      (* the refuting set is re-evaluated in full (once per shard at
         most) for its task list *)
      ( !sh_worst,
        Option.map
          (fun crashed ->
            ( start + consumed - 1,
              crashed,
              (Replay.eval_crashed c ~crashed).Replay.failed_tasks ))
          refuted )
    in
    (* Shards cover increasing rank ranges, so the first one that refutes
       holds the lowest-rank counterexample; the worst latency is taken
       over it and the shards before it, and the later ones are
       discarded. *)
    let rec combine = function
      | [] -> checked := total
      | (sh_worst, ce) :: rest -> (
          if Float.is_nan !worst || sh_worst > !worst then worst := sh_worst;
          match ce with
          | Some (r, crashed, failed) ->
              counterexample := Some (crashed, failed);
              checked := r + 1
          | None -> combine rest)
    in
    combine (Parallel.map ~domains run_shard (List.init shards Fun.id))
  end
  else begin
    Obs_prof.phase ~cat:"sim" "check.sample" @@ fun () ->
    let rng = Rng.create seed in
    let c = Replay.compile sched in
    let consumed, refuted =
      scan_subsets ~cancel c ~worst
        (Seq.init (max 0 samples) (fun _ ->
             Rng.sample_without_replacement rng epsilon m))
    in
    checked := consumed;
    Option.iter
      (fun crashed ->
        counterexample :=
          Some (crashed, (Replay.eval_crashed c ~crashed).Replay.failed_tasks))
      refuted
  end;
  (* Cross-validation against the static supply-graph certificate.  The
     static verdict is exact, so in exhaustive mode the two must agree
     outright.  In sampled mode the replay may have missed the refuting
     crash set — replay the static counterexample before judging, and
     adopt it when the replay confirms it. *)
  let static_agrees =
    match static with
    | None -> None
    | Some (st : Resilience.report) -> (
        match (st.Resilience.rs_counterexample, !counterexample) with
        | None, None -> Some true
        | None, Some _ -> Some false
        | Some _, Some _ -> Some true
        | Some (crashed, _), None ->
            let out = Replay.crash_from_start sched ~crashed in
            incr checked;
            if not out.Replay.completed then begin
              counterexample := Some (crashed, out.Replay.failed_tasks);
              Some true
            end
            else Some false)
  in
  {
    resists = !counterexample = None;
    scenarios_checked = !checked;
    exhaustive;
    counterexample = !counterexample;
    worst_latency = !worst;
    static_agrees;
  }
