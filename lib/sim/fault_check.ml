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

(* The hot path iterates increasing k-subsets of [0, n-1] with an in-place
   index array — the crash-time scratch is filled straight from it, so no
   list (or Bitset mask) is materialized per subset.  [advance_subset]
   steps [idx] to its lexicographic successor; it returns [false] when
   [idx] was the last subset. *)
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

(* The same subsets as the shards' in-place enumeration, as lists, from
   an independent index array: the test oracle relies on that
   independence, and [Inject.adversary]'s exhaustive phase uses it. *)
let combinations n k =
  if k < 0 || k > n then Seq.empty
  else if k = 0 then Seq.return []
  else
    let first = Array.init k (fun i -> i) in
    let successor idx =
      let idx = Array.copy idx in
      let i = ref (k - 1) in
      while !i >= 0 && idx.(!i) = n - k + !i do
        decr i
      done;
      if !i < 0 then None
      else begin
        idx.(!i) <- idx.(!i) + 1;
        for j = !i + 1 to k - 1 do
          idx.(j) <- idx.(j - 1) + 1
        done;
        Some idx
      end
    in
    Seq.unfold
      (function
        | None -> None
        | Some idx -> Some (Array.to_list idx, successor idx))
      (Some first)

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

(* -- the check --------------------------------------------------------- *)

(* Crash sets per [Replay.eval_batch] block.  The block size never changes
   the report — results are consumed in enumeration order and the loop
   stops at the first counterexample — only how much work past that
   counterexample the last block wasted. *)
let block = 256

(* One shard of the exhaustive enumeration: ranks [start, stop). *)
type shard = {
  sh_start : int;
  sh_worst : float;  (* max completed latency before the counterexample *)
  sh_counterexample : (int * Platform.proc list * Dag.task list) option;
      (* rank, crash set, starved tasks — the shard's lowest-rank refutation *)
}

(* A preallocated block of [len] from-start scenarios whose crash-time
   arrays are refilled in place for every block. *)
let scenario_block ~m len =
  Array.init len (fun _ -> Scenario.of_crash_times (Array.make m infinity))

let fill_crashed crash_time procs =
  Array.fill crash_time 0 (Array.length crash_time) infinity;
  Array.iter (fun p -> crash_time.(p) <- neg_infinity) procs

(* [eval_prefix c scenarios len] evaluates the first [len] scenarios and
   scans their latencies in order: it returns the index of the first
   refuted one ([len] if none) after folding the completed latencies
   before it into [worst]. *)
let eval_prefix ~cancel c scenarios len worst =
  let res =
    Replay.eval_batch ~cancel c
      (if len = Array.length scenarios then scenarios
       else Array.sub scenarios 0 len)
  in
  let rec scan j =
    if j = len then len
    else
      let lat = res.Replay.br_latency.(j) in
      if Float.is_nan lat then j
      else begin
        if Float.is_nan !worst || lat > !worst then worst := lat;
        scan (j + 1)
      end
  in
  scan 0

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
      (* the shard owns its compiled engine and scenario block *)
      let c = Replay.compile sched in
      let scenarios = scenario_block ~m (min block (stop - start)) in
      let idx = subset_at_rank ~n:m ~k:epsilon start in
      let rank = ref start in
      let sh_worst = ref nan in
      let sh_ce = ref None in
      while !rank < stop && !sh_ce = None do
        let len = min block (stop - !rank) in
        for j = 0 to len - 1 do
          fill_crashed scenarios.(j).Scenario.sc_crash_time idx;
          ignore (advance_subset ~n:m ~k:epsilon idx)
        done;
        let j = eval_prefix ~cancel c scenarios len sh_worst in
        Obs_metrics.incr ~by:(min len (j + 1)) m_scenarios;
        if j < len then begin
          (* re-evaluate in full (once per shard at most) for the task list *)
          let r = !rank + j in
          let out =
            Replay.eval c ~crash_time:scenarios.(j).Scenario.sc_crash_time
          in
          sh_ce :=
            Some
              ( r,
                Array.to_list (subset_at_rank ~n:m ~k:epsilon r),
                out.Replay.failed_tasks )
        end;
        rank := !rank + len
      done;
      { sh_start = start; sh_worst = !sh_worst; sh_counterexample = !sh_ce }
    in
    let results = Parallel.map ~domains run_shard (List.init shards Fun.id) in
    let winner =
      List.fold_left
        (fun acc sh ->
          match (acc, sh.sh_counterexample) with
          | None, Some _ -> Some sh
          | Some best, Some (r, _, _) ->
              let br =
                match best.sh_counterexample with
                | Some (br, _, _) -> br
                | None -> assert false
              in
              if r < br then Some sh else acc
          | _, None -> acc)
        None results
    in
    match winner with
    | Some { sh_counterexample = Some (r, crashed, failed); _ } ->
        counterexample := Some (crashed, failed);
        checked := r + 1;
        (* worst over the completed scenarios at ranks below [r] only —
           shards beyond the winning rank are discarded *)
        List.iter
          (fun sh ->
            if sh.sh_start <= r && not (Float.is_nan sh.sh_worst) then
              if Float.is_nan !worst || sh.sh_worst > !worst then
                worst := sh.sh_worst)
          results
    | _ ->
        checked := total;
        List.iter
          (fun sh ->
            if not (Float.is_nan sh.sh_worst) then
              if Float.is_nan !worst || sh.sh_worst > !worst then
                worst := sh.sh_worst)
          results
  end
  else begin
    Obs_prof.phase ~cat:"sim" "check.sample" @@ fun () ->
    let rng = Rng.create seed in
    let c = Replay.compile sched in
    let scenarios = scenario_block ~m (max 0 (min block samples)) in
    let drawn = Array.make (Array.length scenarios) [] in
    let i = ref 0 in
    while !i < samples && !counterexample = None do
      let len = min block (samples - !i) in
      for j = 0 to len - 1 do
        drawn.(j) <- Rng.sample_without_replacement rng epsilon m;
        fill_crashed scenarios.(j).Scenario.sc_crash_time
          (Array.of_list drawn.(j))
      done;
      let j = eval_prefix ~cancel c scenarios len worst in
      Obs_metrics.incr ~by:(min len (j + 1)) m_scenarios;
      checked := !checked + min len (j + 1);
      if j < len then begin
        let out =
          Replay.eval c ~crash_time:scenarios.(j).Scenario.sc_crash_time
        in
        counterexample := Some (drawn.(j), out.Replay.failed_tasks)
      end;
      i := !i + len
    done
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
