(* Per-scenario oracles for the batched campaign and verification loops.

   Each function below recomputes a library report with a plain
   sequential loop, one replay per scenario and no [Replay.eval_batch]
   block.  The differential suites compare the two byte for byte. *)

(* -- degradation summary of one outcome ----------------------------- *)

let degradation sched (o : Replay.outcome) =
  let dag = Schedule.dag sched in
  (* earliest completed replica per task; [infinity] when none ran *)
  let earliest =
    Array.map
      (Array.fold_left
         (fun acc -> function
           | Replay.Ran { finish; _ } -> Float.min acc finish
           | _ -> acc)
         infinity)
      o.Replay.replicas
  in
  let done_ t = earliest.(t) < infinity in
  let exits = Dag.exits dag in
  {
    Replay.d_tasks =
      Array.fold_left (fun n e -> if e < infinity then n + 1 else n) 0 earliest;
    d_task_count = Dag.task_count dag;
    d_sinks = List.length (List.filter done_ exits);
    d_sink_count = List.length exits;
    d_frontier =
      Array.fold_left
        (fun acc e -> if e < infinity && e > acc then e else acc)
        0. earliest;
  }

(* -- Monte Carlo: one [Replay.eval] per scenario ----------------------- *)

(* [runs] rows drawn in run order, as the campaign's scan draws them *)
let draw_rows rng ~m ~count ~mode ~runs =
  let rows = Array.create_float (runs * m) in
  for j = 0 to runs - 1 do
    Scenario.draw_row rng ~count ~mode rows ~m j
  done;
  rows

let monte_carlo ?(seed = 20) ?(runs = 1000) ~crashes ~mode sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let l0 = Schedule.latency_zero_crash sched in
  let rows = draw_rows (Rng.create seed) ~m ~count:crashes ~mode ~runs in
  let c = Replay.compile sched in
  let beyond = crashes > Schedule.epsilon sched in
  let degs = ref [] in
  let lat =
    Array.init runs
      (fun j ->
        let o = Replay.eval c ~crash_time:(Array.sub rows (j * m) m) in
        if not beyond then o.Replay.latency
        else begin
          let d = degradation sched o in
          degs := d :: !degs;
          if d.Replay.d_tasks = d.Replay.d_task_count then d.Replay.d_frontier
          else nan
        end)
  in
  let completed_lats =
    List.filter (fun l -> not (Float.is_nan l)) (Array.to_list lat)
  in
  let completed = List.length completed_lats in
  (* the library aggregates the completed latencies in reverse run order *)
  let latency =
    match completed_lats with
    | [] -> None
    | ls -> Some (Stats.summarize (List.rev ls))
  in
  let degradation =
    if not beyond then None
    else begin
      let n = float_of_int runs in
      let csum = ref 0. and cmin = ref 1. in
      let ssum = ref 0. and fsum = ref 0. in
      List.iter
        (fun d ->
          let cf = Replay.completion_fraction d in
          csum := !csum +. cf;
          if cf < !cmin then cmin := cf;
          ssum := !ssum +. Replay.sink_fraction d;
          fsum := !fsum +. d.Replay.d_frontier)
        (List.rev !degs);
      Some
        {
          Monte_carlo.deg_completion_mean = !csum /. n;
          deg_completion_min = !cmin;
          deg_sink_mean = !ssum /. n;
          deg_frontier_mean = !fsum /. n;
        }
    end
  in
  {
    Monte_carlo.runs;
    completed;
    replays = runs;
    latency;
    worst_slowdown =
      (match latency with
      | Some s when l0 > 0. -> s.Stats.max /. l0
      | _ -> nan);
    failure_rate = float_of_int (runs - completed) /. float_of_int runs;
    degradation;
  }

(* -- one full [Replay.eval] per scenario -------------------------------- *)

let crash_times m crashes =
  let a = Array.make m infinity in
  List.iter (fun (p, tau) -> a.(p) <- Float.min a.(p) tau) crashes;
  a

let from_start procs = List.map (fun p -> (p, neg_infinity)) procs

let outcome c crashes =
  Replay.eval c ~crash_time:(crash_times (Replay.proc_count c) crashes)

(* -- Fault_check: the sequential enumeration ---------------------------- *)

(* All increasing [k]-subsets of [0, n-1] in lexicographic order, as
   lists, from an index array of its own: independent of
   [Fault_check.subsets], so the enumeration of the check and of the
   adversary can be cross-checked against it. *)
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

(* [fault_check ~epsilon sched] is [Fault_check.check]'s report together
   with the [fault_check.scenarios] count: the crash sets replayed up to
   the first counterexample, before any static one. *)
let fault_check ?(max_exhaustive = 20000) ?(samples = 1000) ?static ~epsilon
    sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let epsilon = min epsilon m in
  let c = Replay.compile sched in
  let total = Fault_check.count_combinations m epsilon in
  let exhaustive = total <= max_exhaustive in
  let checked = ref 0 in
  let counterexample = ref None in
  let worst = ref nan in
  let record crashed (o : Replay.outcome) =
    if not o.Replay.completed then
      counterexample := Some (crashed, o.Replay.failed_tasks)
    else if Float.is_nan !worst || o.Replay.latency > !worst then
      worst := o.Replay.latency
  in
  if exhaustive then
    Seq.iter
      (fun crashed ->
        if !counterexample = None then begin
          incr checked;
          record crashed (outcome c (from_start crashed))
        end)
      (combinations m epsilon)
  else begin
    let rng = Rng.create 7 in
    while !checked < samples && !counterexample = None do
      incr checked;
      let crashed = Rng.sample_without_replacement rng epsilon m in
      record crashed (outcome c (from_start crashed))
    done
  end;
  let counted = !checked in
  let static_agrees =
    match static with
    | None -> None
    | Some (st : Resilience.report) -> (
        match (st.Resilience.rs_counterexample, !counterexample) with
        | None, None -> Some true
        | None, Some _ -> Some false
        | Some _, Some _ -> Some true
        | Some (crashed, _), None ->
            let o = outcome c (from_start crashed) in
            incr checked;
            if not o.Replay.completed then begin
              counterexample := Some (crashed, o.Replay.failed_tasks);
              Some true
            end
            else Some false)
  in
  ( {
      Fault_check.resists = !counterexample = None;
      scenarios_checked = !checked;
      exhaustive;
      counterexample = !counterexample;
      worst_latency = !worst;
      static_agrees;
    },
    counted )

(* -- Inject.adversary: one evaluation per candidate --------------------- *)

let cand_cmp (l1, s1) (l2, s2) = compare (-.l1, s1) (-.l2, s2)
let take n l = List.filteri (fun i _ -> i < n) l

(* [adversary_search] is [adversary]'s report together with the best
   candidate of its subset phase, before instant refinement: the
   fault-free latency with [[]], or the latest completed crash set. *)
let adversary_search ?(seed = 11) ?(budget = 20_000) ?(beam = 8) ?(domains = 1)
    sched =
  let c = Replay.compile sched in
  let m = Replay.proc_count c in
  let eps = Schedule.epsilon sched in
  let budget = max 8 budget in
  let beam = max 1 beam in
  let evals = ref 0 in
  let eval_timed crashes =
    incr evals;
    (outcome c crashes).Replay.latency
  in
  let eval_subset procs = eval_timed (from_start procs) in
  let degrade_subset procs =
    incr evals;
    degradation sched (outcome c (from_start procs))
  in
  let l0 = eval_timed [] in
  let subset_budget = budget / 2 in
  let nsub = Fault_check.count_combinations m (min eps m) in
  let exhaustive = eps = 0 || nsub <= subset_budget - !evals in
  let best = ref (l0, []) in
  let consider procs =
    let l = eval_subset procs in
    (if not (Float.is_nan l) then
       let cand = (l, procs) in
       if cand_cmp cand !best < 0 then best := cand);
    l
  in
  (if eps > 0 then
     if exhaustive then
       Seq.iter
         (fun procs -> ignore (consider procs))
         (combinations m (min eps m))
     else begin
       let singles =
         List.init m (fun p -> (consider [ p ], [ p ]))
         |> List.filter (fun (l, _) -> not (Float.is_nan l))
         |> List.sort cand_cmp
       in
       let frontier = ref (List.map snd (take beam singles)) in
       for _size = 2 to min eps m do
         let grown = ref [] in
         List.iter
           (fun set ->
             for p = m - 1 downto 0 do
               if (not (List.mem p set)) && !evals < subset_budget then begin
                 let set' = List.sort compare (p :: set) in
                 if not (List.exists (fun (_, s) -> s = set') !grown) then begin
                   let l = consider set' in
                   if not (Float.is_nan l) then grown := (l, set') :: !grown
                 end
               end
             done)
           !frontier;
         frontier := List.map snd (take beam (List.sort cand_cmp !grown))
       done;
       let rng = Rng.create seed in
       while !evals < subset_budget do
         ignore
           (consider
              (List.sort compare (Scenario.uniform_procs rng ~m ~count:eps)))
       done
     end);
  let refine (l_start, procs) =
    let current = ref (l_start, from_start procs) in
    let instants p =
      neg_infinity
      :: List.map
           (fun (r : Schedule.replica) ->
             (r.Schedule.r_start +. r.Schedule.r_finish) /. 2.)
           (Schedule.on_proc sched p)
    in
    let improved = ref true in
    let pass = ref 0 in
    while !improved && !pass < 3 && !evals < budget do
      improved := false;
      incr pass;
      List.iter
        (fun p ->
          List.iter
            (fun tau ->
              if !evals < budget then begin
                let assign' =
                  List.map
                    (fun (q, t) -> if q = p then (q, tau) else (q, t))
                    (snd !current)
                in
                let l = eval_timed assign' in
                if (not (Float.is_nan l)) && l > fst !current then begin
                  current := (l, assign');
                  improved := true
                end
              end)
            (instants p))
        procs
    done;
    !current
  in
  let searched = !best in
  let w_latency, w_crashes = refine searched in
  let iv_worst =
    if Float.is_nan w_latency then None
    else
      Some
        {
          Inject.w_crashes = List.sort compare w_crashes;
          w_latency;
          w_slowdown = (if l0 > 0. then w_latency /. l0 else nan);
          w_exhaustive = exhaustive;
        }
  in
  let cert =
    match Resilience.certify ~epsilon:eps ~domains sched with
    | r -> Some r
    | exception Resilience.Family_overflow _ -> None
  in
  let iv_cert_resists = Option.map (fun r -> r.Resilience.rs_resists) cert in
  let iv_min_kill =
    match cert with
    | Some { Resilience.rs_counterexample = Some (procs, _); _ } ->
        Some
          {
            Inject.k_procs = procs;
            k_degradation = degrade_subset procs;
            k_certified = true;
          }
    | _ ->
        let v = Dag.task_count (Schedule.dag sched) in
        let seen = Hashtbl.create 64 in
        let best = ref None in
        (try
           for t = 0 to v - 1 do
             if !evals >= budget then raise Exit;
             let procs =
               List.sort_uniq compare
                 (List.init (eps + 1) (fun i ->
                      (Schedule.replica sched t i).Schedule.r_proc))
             in
             if not (Hashtbl.mem seen procs) then begin
               Hashtbl.add seen procs ();
               let d = degrade_subset procs in
               let key =
                 (Replay.completion_fraction d, List.length procs, procs)
               in
               match !best with
               | Some (bkey, _, _) when bkey <= key -> ()
               | _ -> best := Some (key, procs, d)
             end
           done
         with Exit -> ());
        Option.map
          (fun (_, procs, d) ->
            {
              Inject.k_procs = procs;
              k_degradation = d;
              k_certified = iv_cert_resists = Some true;
            })
          !best
  in
  ( {
      Inject.iv_epsilon = eps;
      iv_m = m;
      iv_budget = budget;
      iv_evals = !evals;
      iv_fault_free = l0;
      iv_cert_resists;
      iv_worst;
      iv_min_kill;
    },
    searched )

let adversary ?seed ?budget ?beam ?domains sched =
  fst (adversary_search ?seed ?budget ?beam ?domains sched)

(* -- Resilience.certify: kill-set families as lists of [Bitset.t] ------ *)

(* The certifier as first written: every family is a list of heap sets,
   grown one union at a time by [add_minimal], and the overflow limit is
   checked after every add.  The library's flat-array batch version must
   return the same report, list order of every family included (it picks
   the refuting set of a task on ties), and raise [Family_overflow] for
   the same task. *)

type per_task = {
  pt_fams : Bitset.t list array;
  pt_supports : Bitset.t array option;
  pt_verdict : Resilience.task_verdict;
}

let add_minimal fam s =
  if List.exists (fun t -> Bitset.subset t s) fam then fam
  else s :: List.filter (fun t -> not (Bitset.subset s t)) fam

(* Minimal unions of one element per family: the crash sets killing both
   of two (conjunctions of) replicas.  Truncated to [epsilon]. *)
let cross ~epsilon ~max_family task acc fam =
  List.fold_left
    (fun out a ->
      List.fold_left
        (fun out b ->
          let u = Bitset.union a b in
          if Bitset.cardinal u > epsilon then out
          else begin
            let out = add_minimal out u in
            if List.compare_length_with out max_family > 0 then
              raise (Resilience.Family_overflow task);
            out
          end)
        out fam)
    [] acc

let smallest_of = function
  | [] -> None
  | s :: rest ->
      Some
        (List.fold_left
           (fun best t ->
             if Bitset.cardinal t < Bitset.cardinal best then t else best)
           s rest)

let certify ?epsilon ?domains ?(max_family = 65536) sched =
  let dag = Schedule.dag sched in
  let platform = Schedule.platform sched in
  let m = Platform.proc_count platform in
  let v = Dag.task_count dag in
  let eps1 = Schedule.epsilon sched + 1 in
  let epsilon =
    match epsilon with
    | Some e -> min (max e 0) m
    | None -> min (Schedule.epsilon sched) m
  in
  let sg = Supply_graph.build sched in
  let fams = Array.init v (fun _ -> [||]) in
  let supports = Array.make v None in
  let verdicts = Array.make v (Resilience.Certified Min_cut) in

  let pairwise_disjoint sets =
    let n = Array.length sets in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if not (Bitset.disjoint sets.(i) sets.(j)) then ok := false
      done
    done;
    !ok
  in

  (* Certify one task, reading only strictly earlier levels. *)
  let process task =
    let cross = cross ~epsilon ~max_family task in
    let preds = Dag.pred_tasks dag task in
    let rs = Schedule.replicas sched task in
    let fam_r = Array.make eps1 [] in
    let supp_r = Array.make eps1 (Bitset.create m) in
    let supp_ok = ref true in
    Array.iteri
      (fun i (r : Schedule.replica) ->
        let proc = r.Schedule.r_proc in
        let fam =
          ref (if epsilon >= 1 then [ Bitset.singleton m proc ] else [])
        in
        let supp = Bitset.singleton m proc in
        List.iter
          (fun pred ->
            match Supply_graph.supplier_indices sg ~task ~replica:i ~pred with
            | [] ->
                (* no supply at all: the replica starves unconditionally *)
                fam := [ Bitset.create m ];
                supp_ok := false
            | sups ->
                (* crash sets starving this input: kill every supplier *)
                let via =
                  List.fold_left
                    (fun acc j -> cross acc fams.(pred).(j))
                    [ Bitset.create m ] sups
                in
                List.iter (fun s -> fam := add_minimal !fam s) via;
                (* support witness: follow the supplier with the smallest
                   support, preferring co-located hand-offs on ties *)
                let best =
                  List.fold_left
                    (fun best j ->
                      match best with
                      | None -> Some j
                      | Some b ->
                          let cb =
                            match supports.(pred) with
                            | Some sp -> Bitset.cardinal sp.(b)
                            | None -> max_int
                          and cj =
                            match supports.(pred) with
                            | Some sp -> Bitset.cardinal sp.(j)
                            | None -> max_int
                          in
                          if cj < cb then Some j else best)
                    None sups
                in
                (match (best, supports.(pred)) with
                | Some b, Some sp -> Bitset.union_into ~into:supp sp.(b)
                | _ -> supp_ok := false))
          preds;
        fam_r.(i) <- !fam;
        supp_r.(i) <- supp)
      rs;
    (* killing the task = killing every replica *)
    let task_fam =
      Array.fold_left (fun acc f -> cross acc f) [ Bitset.create m ] fam_r
    in
    let verdict =
      match smallest_of task_fam with
      | Some s -> Resilience.Refuted (Bitset.elements s)
      | None ->
          if !supp_ok && eps1 >= epsilon + 1 && pairwise_disjoint supp_r then
            Resilience.Certified (Disjoint_supports (Array.map Bitset.copy supp_r))
          else Resilience.Certified Min_cut
    in
    {
      pt_fams = fam_r;
      pt_supports = (if !supp_ok then Some supp_r else None);
      pt_verdict = verdict;
    }
  in

  (* Level-synchronous bottom-up sweep: tasks of one precedence level are
     independent given the levels below, so wide levels fan out over
     domains. *)
  let level = Array.make v 0 in
  Array.iter
    (fun task ->
      List.iter
        (fun pred -> level.(task) <- max level.(task) (level.(pred) + 1))
        (Dag.pred_tasks dag task))
    (Dag.topological_order dag);
  let max_level = Array.fold_left max 0 level in
  let by_level = Array.make (max_level + 1) [] in
  (* reverse topological iteration keeps each level list in increasing
     topological position *)
  Array.iter
    (fun task -> by_level.(level.(task)) <- task :: by_level.(level.(task)))
    (Dag.reverse_topological_order dag);
  Array.iter
    (fun tasks ->
      let results =
        if List.compare_length_with tasks 8 >= 0 then
          Parallel.map ?domains process tasks
        else List.map process tasks
      in
      List.iter2
        (fun task pt ->
          fams.(task) <- pt.pt_fams;
          supports.(task) <- pt.pt_supports;
          verdicts.(task) <- pt.pt_verdict)
        tasks results)
    by_level;

  (* smallest refuting crash set over all tasks *)
  let counterexample =
    Array.fold_left
      (fun best verdict ->
        match (verdict, best) with
        | Resilience.Refuted s, None -> Some s
        | Resilience.Refuted s, Some b when List.length s < List.length b -> Some s
        | _ -> best)
      None verdicts
    |> Option.map (fun crashed ->
           (crashed, Resilience.starved_tasks sched ~crashed))
  in
  {
    Resilience.rs_epsilon = epsilon;
    rs_resists = counterexample = None;
    rs_tasks = verdicts;
    rs_counterexample = counterexample;
  }
