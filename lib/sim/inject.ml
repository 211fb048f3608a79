type worst = {
  w_crashes : (Platform.proc * float) list;
  w_latency : float;
  w_slowdown : float;
  w_exhaustive : bool;
}

type kill = {
  k_procs : Platform.proc list;
  k_degradation : Replay.degradation;
  k_certified : bool;
}

type report = {
  iv_epsilon : int;
  iv_m : int;
  iv_budget : int;
  iv_evals : int;
  iv_fault_free : float;
  iv_cert_resists : bool option;
  iv_worst : worst option;
  iv_min_kill : kill option;
}

let m_frontier =
  Obs_metrics.counter ~help:"adversary frontier evaluations (Inject)"
    "stress.frontier_evals"

(* Descending latency, then the lexicographically smallest subset: a
   total deterministic order on search candidates. *)
let cand_cmp (l1, s1) (l2, s2) = compare (-.l1, s1) (-.l2, s2)

let take n l = List.filteri (fun i _ -> i < n) l

let adversary ?(seed = 11) ?(budget = 20_000) ?(beam = 8) ?(domains = 1) sched
    =
  Obs_trace.with_span ~cat:"sim" "inject.adversary" @@ fun () ->
  let c = Replay.compile sched in
  let m = Replay.proc_count c in
  let eps = Schedule.epsilon sched in
  let budget = max 8 budget in
  let beam = max 1 beam in
  let evals = ref 0 in
  (* [replay_all ~fill ~consume items] replays [items] through
     [Replay.scan] and hands each result to [consume item batch j] in
     item order; every item is one frontier evaluation. *)
  let replay_all ?degradation ~fill ~consume items =
    let n =
      Replay.scan ?degradation ~domains c ~fill
        ~consume:(fun x res j ->
          consume x res j;
          true)
        items
    in
    evals := !evals + n;
    Obs_metrics.incr ~by:n m_frontier
  in
  let latency (res : Replay.batch) j = res.Replay.br_latency.(j) in
  let l0 =
    let l = ref nan in
    replay_all ~fill:Scenario.write_timed
      ~consume:(fun _ res j -> l := latency res j)
      (Seq.return []);
    !l
  in

  (* -- worst-case slowdown within epsilon crashes -------------------- *)
  (* Phase 1: from-start subsets of size exactly epsilon (completion is
     monotone in the crash set, and certified schedules complete them
     all, so size epsilon dominates smaller sets for coverage). *)
  let subset_budget = budget / 2 in
  let nsub = Fault_check.count_combinations m (min eps m) in
  let exhaustive = eps = 0 || nsub <= subset_budget - !evals in
  let best = ref (l0, []) in
  let consider procs l =
    if not (Float.is_nan l) then
      let cand = (l, procs) in
      if cand_cmp cand !best < 0 then best := cand
  in
  let eval_subsets ~consume subsets =
    replay_all ~fill:Scenario.write_from_start subsets
      ~consume:(fun procs res j ->
        let l = latency res j in
        consider procs l;
        consume procs l)
  in
  let ignore_result _ _ = () in
  (* every from-start plan replayed so far completed every task *)
  let completed = ref (not (Float.is_nan l0)) in
  Obs_prof.phase ~cat:"sim" "stress.subsets" (fun () ->
      if eps > 0 then
        if exhaustive then
          eval_subsets
            ~consume:(fun _ l -> if Float.is_nan l then completed := false)
            (Fault_check.subsets ~n:m ~k:(min eps m))
        else begin
          (* greedy criticality seeding: rank singletons by damage, then
             grow the best [beam] of them one processor at a time *)
          let singles = ref [] in
          eval_subsets
            ~consume:(fun procs l -> singles := (l, procs) :: !singles)
            (Seq.init m (fun p -> [ p ]));
          let singles =
            List.rev !singles
            |> List.filter (fun (l, _) -> not (Float.is_nan l))
            |> List.sort cand_cmp
          in
          let frontier = ref (List.map snd (take beam singles)) in
          for _size = 2 to min eps m do
            let grown = ref [] in
            List.iter
              (fun set ->
                (* one block per frontier set: its extensions not grown
                   yet, in decreasing processor order, cut to the
                   remaining subset budget *)
                let room = subset_budget - !evals in
                let cands = ref [] and n = ref 0 in
                for p = m - 1 downto 0 do
                  if (not (List.mem p set)) && !n < room then begin
                    let set' = List.sort compare (p :: set) in
                    if not (List.exists (fun (_, s) -> s = set') !grown)
                    then begin
                      cands := set' :: !cands;
                      incr n
                    end
                  end
                done;
                eval_subsets
                  ~consume:(fun set' l ->
                    if not (Float.is_nan l) then grown := (l, set') :: !grown)
                  (List.to_seq (List.rev !cands)))
              !frontier;
            frontier := List.map snd (take beam (List.sort cand_cmp !grown))
          done;
          (* top up with seeded random subsets while the budget allows *)
          let rng = Rng.create seed in
          eval_subsets ~consume:ignore_result
            (Seq.init
               (max 0 (subset_budget - !evals))
               (fun _ ->
                 List.sort compare (Scenario.uniform_procs rng ~m ~count:eps)))
        end);
  (* Phase 2: crash-instant refinement by coordinate descent.  Candidate
     instants per processor are the static execution midpoints of its
     replicas: each one kills that replica (and everything after) at the
     last possible moment, wasting the most completed work. *)
  let refine (l_start, procs) =
    let current =
      ref (l_start, List.map (fun p -> (p, neg_infinity)) procs)
    in
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
          (* every candidate moves only [p]'s instant, so an improvement
             found earlier in the block leaves the later candidates
             unchanged: one block per processor, cut to the budget *)
          let _, assign = !current in
          let plans =
            List.map
              (fun tau ->
                List.map
                  (fun (q, t) -> if q = p then (q, tau) else (q, t))
                  assign)
              (take (budget - !evals) (instants p))
          in
          replay_all ~fill:Scenario.write_timed (List.to_seq plans)
            ~consume:(fun assign' res j ->
              let l = latency res j in
              if (not (Float.is_nan l)) && l > fst !current then begin
                current := (l, assign');
                improved := true
              end))
        procs
    done;
    !current
  in
  let w_latency, w_crashes =
    Obs_prof.phase ~cat:"sim" "stress.refine" (fun () -> refine !best)
  in
  let iv_worst =
    if Float.is_nan w_latency then None
    else
      Some
        {
          w_crashes = List.sort compare w_crashes;
          w_latency;
          w_slowdown = (if l0 > 0. then w_latency /. l0 else nan);
          w_exhaustive = exhaustive;
        }
  in

  (* -- minimal kill set ---------------------------------------------- *)
  (* An exhaustive phase in which every size-epsilon crash set completed
     decides epsilon-resistance exactly: completion is monotone in the
     crash set, and the certificate agrees with replay on from-start
     crashes.  The certificate runs only when its answer is new: after a
     sampled search, or for the minimal counterexample of a refutation. *)
  let iv_cert_resists, counterexample =
    if exhaustive && !completed then (Some true, None)
    else
      match Resilience.certify ~epsilon:eps ~domains sched with
      | r -> (Some r.Resilience.rs_resists, r.Resilience.rs_counterexample)
      | exception Resilience.Family_overflow _ -> (None, None)
  in
  let degrade_subsets sets ~consume =
    replay_all ~degradation:true ~fill:Scenario.write_from_start
      (List.to_seq sets) ~consume:(fun procs res j ->
        consume procs (Replay.batch_degradation c res j))
  in
  let iv_min_kill =
    Obs_prof.phase ~cat:"sim" "stress.kill" @@ fun () ->
    match counterexample with
    | Some (procs, _) ->
        (* the certificate's own minimal refutation, size <= epsilon *)
        let kill = ref None in
        degrade_subsets [ procs ] ~consume:(fun procs d ->
            kill :=
              Some { k_procs = procs; k_degradation = d; k_certified = true });
        !kill
    | None ->
        (* epsilon-resistance certified (or certification abandoned): the
           cheapest kill sets are the replica-processor sets of single
           tasks, size epsilon + 1 — provably minimal when certified.
           Pick the one degrading completion the most, scanning the
           distinct sets in task order up to the budget in one block. *)
        let v = Dag.task_count (Schedule.dag sched) in
        let seen = Hashtbl.create 64 in
        let sets = ref [] and n = ref 0 in
        (try
           for t = 0 to v - 1 do
             if !evals + !n >= budget then raise Exit;
             let procs =
               List.sort_uniq compare
                 (List.init (eps + 1) (fun i ->
                      (Schedule.replica sched t i).Schedule.r_proc))
             in
             if not (Hashtbl.mem seen procs) then begin
               Hashtbl.add seen procs ();
               sets := procs :: !sets;
               incr n
             end
           done
         with Exit -> ());
        let best = ref None in
        degrade_subsets (List.rev !sets) ~consume:(fun procs d ->
            let key =
              (Replay.completion_fraction d, List.length procs, procs)
            in
            match !best with
            | Some (bkey, _, _) when bkey <= key -> ()
            | _ -> best := Some (key, procs, d));
        Option.map
          (fun (_, procs, d) ->
            {
              k_procs = procs;
              k_degradation = d;
              k_certified = (iv_cert_resists = Some true);
            })
          !best
  in
  {
    iv_epsilon = eps;
    iv_m = m;
    iv_budget = budget;
    iv_evals = !evals;
    iv_fault_free = l0;
    iv_cert_resists;
    iv_worst;
    iv_min_kill;
  }

(* -- reporting --------------------------------------------------------- *)

let pp_instant ppf tau =
  if tau = neg_infinity then Format.fprintf ppf "start"
  else Format.fprintf ppf "t=%.3f" tau

let pp ppf r =
  Format.fprintf ppf "@[<v>adversary: m=%d epsilon=%d (%d/%d evals)@,"
    r.iv_m r.iv_epsilon r.iv_evals r.iv_budget;
  Format.fprintf ppf "fault-free latency: %.3f@," r.iv_fault_free;
  (match r.iv_cert_resists with
  | Some true -> Format.fprintf ppf "certificate: resists %d crashes@," r.iv_epsilon
  | Some false ->
      Format.fprintf ppf "certificate: REFUTED at %d crashes@," r.iv_epsilon
  | None -> Format.fprintf ppf "certificate: unavailable@,");
  (match r.iv_worst with
  | None -> Format.fprintf ppf "worst plan: none completed@,"
  | Some w ->
      Format.fprintf ppf
        "worst <=epsilon plan: latency %.3f (slowdown %.2fx, %s) [%a]@,"
        w.w_latency w.w_slowdown
        (if w.w_exhaustive then "exhaustive" else "beam")
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf (p, tau) -> Format.fprintf ppf "P%d@@%a" p pp_instant tau))
        w.w_crashes);
  match r.iv_min_kill with
  | None -> Format.fprintf ppf "min kill set: none found@]"
  | Some k ->
      Format.fprintf ppf
        "min kill set: {%a} (%s) -> %d/%d tasks, %d/%d sinks, frontier %.3f@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           (fun ppf p -> Format.fprintf ppf "P%d" p))
        k.k_procs
        (if k.k_certified then "certified minimal" else "heuristic")
        k.k_degradation.Replay.d_tasks k.k_degradation.Replay.d_task_count
        k.k_degradation.Replay.d_sinks k.k_degradation.Replay.d_sink_count
        k.k_degradation.Replay.d_frontier

let json_of_degradation (d : Replay.degradation) =
  Json.Obj
    [
      ("tasks_completed", Json.Int d.Replay.d_tasks);
      ("task_count", Json.Int d.Replay.d_task_count);
      ("sinks_completed", Json.Int d.Replay.d_sinks);
      ("sink_count", Json.Int d.Replay.d_sink_count);
      ("completion_fraction", Json.Float (Replay.completion_fraction d));
      ("sink_fraction", Json.Float (Replay.sink_fraction d));
      ("frontier_latency", Json.Float d.Replay.d_frontier);
    ]

let to_json r =
  Json.Obj
    [
      ("m", Json.Int r.iv_m);
      ("epsilon", Json.Int r.iv_epsilon);
      ("budget", Json.Int r.iv_budget);
      ("evals", Json.Int r.iv_evals);
      ("fault_free_latency", Json.Float r.iv_fault_free);
      ( "certificate_resists",
        match r.iv_cert_resists with
        | None -> Json.Null
        | Some b -> Json.Bool b );
      ( "worst",
        match r.iv_worst with
        | None -> Json.Null
        | Some w ->
            Json.Obj
              [
                ( "crashes",
                  Json.List
                    (List.map
                       (fun (p, tau) ->
                         Json.Obj
                           [
                             ("proc", Json.Int p);
                             ( "at",
                               if tau = neg_infinity then
                                 Json.String "start"
                               else Json.Float tau );
                           ])
                       w.w_crashes) );
                ("latency", Json.Float w.w_latency);
                ("slowdown", Json.Float w.w_slowdown);
                ("exhaustive", Json.Bool w.w_exhaustive);
              ] );
      ( "min_kill",
        match r.iv_min_kill with
        | None -> Json.Null
        | Some k ->
            Json.Obj
              [
                ( "procs",
                  Json.List (List.map (fun p -> Json.Int p) k.k_procs) );
                ("size", Json.Int (List.length k.k_procs));
                ("certified", Json.Bool k.k_certified);
                ("degradation", json_of_degradation k.k_degradation);
              ] );
    ]
