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
    let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
    (* acc = C(n - k + i - 1, i - 1); the next one is acc * (n - k + i) / i,
       exact, so i / g divides n - k + i for g = gcd acc i.  Dividing
       first keeps every intermediate within the result. *)
    let rec go acc i =
      if i > k then acc
      else
        let g = gcd acc i in
        let a = acc / g and b = (n - k + i) / (i / g) in
        if a > max_int / b then max_int else go (a * b) (i + 1)
    in
    go 1 1
  end

let subsets ~n ~k =
  let rec from idx () =
    Seq.Cons
      ( Array.to_list idx,
        fun () ->
          let next = Array.copy idx in
          if advance_subset ~n ~k next then from next () else Seq.Nil )
  in
  if k < 0 || k > n then Seq.empty else from (Array.init k Fun.id)

(* -- the check --------------------------------------------------------- *)

(* [scan_subsets c ~worst subsets] replays [subsets] in order and stops
   at the first one that loses a task: it returns the number of subsets
   consumed and that refuting subset, if any, after folding the
   completed latencies before it into [worst]. *)
let scan_subsets ~cancel ~domains c ~worst subsets =
  let refuted = ref None in
  let consumed =
    Replay.scan ~cancel ~domains c ~fill:Scenario.write_from_start
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

let check ?(max_exhaustive = 20000) ?(samples = 1000) ?(domains = 1)
    ?(cancel = Cancel.never) ?static ~epsilon sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let epsilon = min epsilon m in
  let exhaustive = count_combinations m epsilon <= max_exhaustive in
  (* every crash set of size epsilon in rank order, or the seeded samples,
     drawn as the scan fills its rows *)
  let crash_sets =
    if exhaustive then subsets ~n:m ~k:epsilon
    else
      let rng = Rng.create 7 in
      Seq.init (max 0 samples) (fun _ ->
          Rng.sample_without_replacement rng epsilon m)
  in
  let worst = ref nan in
  let c = Replay.compile sched in
  let consumed, refuted =
    Obs_prof.phase ~trace:false "check.scan" @@ fun () ->
    scan_subsets ~cancel ~domains c ~worst crash_sets
  in
  let checked = ref consumed in
  (* the refuting set is re-evaluated in full for its task list *)
  let counterexample =
    ref
      (Option.map
         (fun crashed ->
           (crashed, (Replay.eval_crashed c ~crashed).Replay.failed_tasks))
         refuted)
  in
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
            let out = Replay.eval_crashed c ~crashed in
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
