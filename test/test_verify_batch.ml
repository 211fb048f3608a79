(* Batched verification against the per-scenario oracles of [Oracle]:
   [Fault_check.check] and [Inject.adversary] evaluate their crash sets
   through [Replay.scan], and must return byte-identical reports and
   count the same scenarios as one [Replay.eval] per crash set, on 1, 2,
   3 and 4 domains.  Also
   pins that the replay engines die with the call that compiled them,
   and that the exhaustive check and the adversary agree. *)

let bytes_of x = Marshal.to_string x []

let counter name =
  match Obs_metrics.find name with
  | Some (Obs_metrics.Counter n) -> n
  | _ -> Alcotest.failf "%s not registered" name

(* run [f] with metrics on and zeroed; return its result and [name]'s count *)
let counting name f =
  Obs_metrics.reset ();
  Obs_metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs_metrics.set_enabled false)
    (fun () ->
      let r = f () in
      (r, counter name))

(* [target_chain ~m ~target] is a HEFT schedule whose three tasks all run
   on processor [target] (every other processor is ten times slower), so
   the only refuting single crash is [{target}] — the first counterexample
   of the epsilon = 1 enumeration sits at rank [target]. *)
let target_chain ~m ~target =
  let dag = Helpers.chain3 () in
  let platform = Helpers.uniform_platform m in
  Heft.run
    (Costs.create dag platform (fun _ p -> if p = target then 1. else 10.))

(* -- Fault_check -------------------------------------------------------- *)

let domain_counts = [ 1; 2; 3; 4 ]

let same_check name ?max_exhaustive ?samples ?static ~epsilon sched =
  let oracle, oracle_count =
    Oracle.fault_check ?max_exhaustive ?samples ?static ~epsilon sched
  in
  List.iter
    (fun domains ->
      let label = Printf.sprintf "%s domains %d" name domains in
      let report, count =
        counting "fault_check.scenarios" (fun () ->
            Fault_check.check ?max_exhaustive ?samples ?static ~domains
              ~epsilon sched)
      in
      Helpers.check_bool (label ^ ": report") true
        (bytes_of report = bytes_of oracle);
      Helpers.check_int (label ^ ": scenarios counted") oracle_count count)
    domain_counts

let test_check_certified_and_refuted () =
  let _, costs = Helpers.random_instance ~seed:42 ~m:7 ~tasks:25 () in
  (* an unreplicated schedule refuted at the first crash that hits it *)
  same_check "heft eps 1" ~epsilon:1 (Heft.run costs);
  let caft1 = Caft.run ~epsilon:1 costs in
  (* certified, with and without the static cross-check *)
  same_check "caft1 eps 1" ~epsilon:1 caft1;
  same_check "caft1 eps 1 static" ~epsilon:1
    ~static:(Resilience.certify ~epsilon:1 caft1)
    caft1;
  (* beyond its replication level: refuted somewhere in the enumeration *)
  same_check "caft1 eps 2" ~epsilon:2 caft1;
  same_check "caft1 eps 2 static" ~epsilon:2
    ~static:(Resilience.certify ~epsilon:2 caft1)
    caft1;
  let caft2 = Caft.run ~epsilon:2 costs in
  same_check "caft2 eps 2" ~epsilon:2 caft2;
  same_check "caft2 eps 3" ~epsilon:3 caft2

let test_check_counterexample_ranks () =
  (* the first refutation in the middle of the first block, on its last
     scenario, on the first scenario of the second block, on the last of
     the second and of the third, and in the last block: with 2, 3 and 4
     domains the stop falls in every position of a wave *)
  List.iter
    (fun target ->
      let sched = target_chain ~m:800 ~target in
      let name = Printf.sprintf "rank %d" target in
      same_check name ~epsilon:1 sched;
      let r = Fault_check.check ~epsilon:1 sched in
      Helpers.check_int (name ^ ": checked") (target + 1)
        r.Fault_check.scenarios_checked;
      Helpers.check_bool (name ^ ": crash set") true
        (Option.map fst r.Fault_check.counterexample = Some [ target ]))
    [ 100; 255; 256; 511; 767; 799 ]

let test_check_sampled () =
  let _, costs = Helpers.random_instance ~seed:43 ~m:8 ~tasks:25 () in
  let caft = Caft.run ~epsilon:2 costs in
  (* certified: every sample completes, several blocks *)
  same_check "sampled certified" ~max_exhaustive:0 ~samples:600 ~epsilon:2
    caft;
  (* refuted at some sample past the first block: {target} is drawn
     with probability 1/300 per sample *)
  let sched = target_chain ~m:300 ~target:17 in
  same_check "sampled refuted" ~max_exhaustive:0 ~samples:2000 ~epsilon:1
    sched;
  let r = Fault_check.check ~max_exhaustive:0 ~samples:2000 ~epsilon:1 sched in
  Helpers.check_bool "sampled refutation found" false r.Fault_check.resists;
  (* a static refutation the samples missed is replayed and adopted *)
  same_check "sampled static" ~max_exhaustive:0 ~samples:5 ~epsilon:1
    ~static:(Resilience.certify ~epsilon:1 sched)
    sched

let test_check_cancel_mid_block () =
  let _, costs = Helpers.random_instance ~seed:44 ~m:30 ~tasks:60 () in
  let sched = Caft.run ~epsilon:3 costs in
  (* C(30,3) = 4060 crash sets cost far more than the 5 ms the deadline
     leaves, so it expires inside some block *)
  let raises name f =
    match f () with
    | (_ : Fault_check.report) -> Alcotest.failf "%s: not cancelled" name
    | exception Cancel.Cancelled -> ()
  in
  raises "deadline" (fun () ->
      let cancel = Cancel.with_deadline (Unix.gettimeofday () +. 0.005) in
      Fault_check.check ~cancel ~epsilon:3 sched);
  raises "deadline, 2 domains" (fun () ->
      let cancel = Cancel.with_deadline (Unix.gettimeofday () +. 0.005) in
      Fault_check.check ~domains:2 ~cancel ~epsilon:3 sched);
  raises "deadline, sampled" (fun () ->
      let cancel = Cancel.with_deadline (Unix.gettimeofday () +. 0.005) in
      Fault_check.check ~max_exhaustive:0 ~samples:4060 ~cancel ~epsilon:3
        sched);
  let tripped = Cancel.create () in
  Cancel.cancel tripped;
  raises "tripped" (fun () ->
      Fault_check.check ~cancel:tripped ~epsilon:1 sched)

(* -- Inject.adversary --------------------------------------------------- *)

let same_adversary name ?budget ?beam sched =
  let o = Oracle.adversary ?budget ?beam sched in
  let run domains =
    let name = Printf.sprintf "%s domains %d" name domains in
    let r, evals =
      counting "stress.frontier_evals" (fun () ->
          Inject.adversary ?budget ?beam ~domains sched)
    in
    Helpers.check_bool (name ^ ": to_json") true
      (Json.to_string (Inject.to_json r) = Json.to_string (Inject.to_json o));
    Helpers.check_bool (name ^ ": report") true (bytes_of r = bytes_of o);
    Helpers.check_int (name ^ ": frontier evals counted") o.Inject.iv_evals
      evals;
    r
  in
  List.iter (fun d -> ignore (run d)) (List.tl domain_counts);
  run 1

let test_adversary_exhaustive () =
  let _, costs = Helpers.random_instance ~seed:5 ~m:6 ~tasks:25 () in
  let r = same_adversary "caft1 m6" (Caft.run ~epsilon:1 costs) in
  Helpers.check_bool "exhaustive" true
    (Option.map (fun w -> w.Inject.w_exhaustive) r.Inject.iv_worst = Some true);
  ignore (same_adversary "caft2 m6" (Caft.run ~epsilon:2 costs));
  (* small budgets cut the refinement inside one processor's block *)
  List.iter
    (fun budget ->
      ignore
        (same_adversary
           (Printf.sprintf "caft1 m6 budget %d" budget)
           ~budget (Caft.run ~epsilon:1 costs)))
    [ 12; 16; 24 ];
  (* epsilon 0: no subset phase, kill sets of single replicas *)
  ignore (same_adversary "heft m6" (Heft.run costs))

let test_adversary_beam () =
  (* C(m, eps) above half the budget: singles, beam layers, random top-up,
     refinement and the kill-set scan all run *)
  List.iter
    (fun (seed, m, eps, budget, beam) ->
      let _, costs = Helpers.random_instance ~seed ~m ~tasks:30 () in
      let name = Printf.sprintf "m%d eps%d budget %d beam %d" m eps budget beam in
      let r =
        same_adversary name ~budget ~beam (Caft.run ~seed ~epsilon:eps costs)
      in
      Helpers.check_bool (name ^ ": beam search") true
        (Option.map (fun w -> w.Inject.w_exhaustive) r.Inject.iv_worst
        = Some false))
    [
      (* the budget runs out inside the kill-set scan *)
      (6, 10, 2, 80, 2);
      (7, 12, 3, 400, 8);
      (8, 20, 3, 2_000, 8);
      (* the beam layers use up the subset budget: no top-up *)
      (9, 12, 2, 70, 8);
    ]

(* -- engine lifetime ---------------------------------------------------- *)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_engines_freed () =
  let _, costs = Helpers.random_instance ~seed:12 ~m:8 ~tasks:30 () in
  let sched = Caft.run ~epsilon:1 costs in
  let engine = Obj.reachable_words (Obj.repr (Replay.compile sched)) in
  let growth name call =
    for _ = 1 to 5 do
      call ()
    done;
    let before = live_words () in
    for _ = 1 to 200 do
      call ()
    done;
    let grown = live_words () - before in
    if grown >= engine then
      Alcotest.failf "%s: 200 calls kept %d live words (one engine: %d)" name
        grown engine
  in
  growth "Monte_carlo.run" (fun () ->
      ignore
        (Monte_carlo.run ~runs:20 ~crashes:1 ~mode:Monte_carlo.From_start sched));
  growth "Fault_check.check" (fun () ->
      ignore (Fault_check.check ~epsilon:1 sched));
  growth "Fault_check.check sampled" (fun () ->
      ignore (Fault_check.check ~max_exhaustive:0 ~samples:10 ~epsilon:1 sched))

(* -- the check and the adversary agree ----------------------------------- *)

(* On small CAFT and FTSA instances both verdicts enumerate every
   size-epsilon crash set.  When the check finds the schedule resists,
   the adversary's search was exhaustive too, and its worst plan is at
   least the check's worst completed latency: the exhaustive phase sees
   every such set and refinement only raises the latency. *)
let agree_gen =
  QCheck.Gen.(
    map
      (fun ((seed, m, tasks), (epsilon, ftsa)) -> (seed, m, tasks, epsilon, ftsa))
      (pair
         (triple (int_range 0 1_000_000) (int_range 3 8) (int_range 4 14))
         (pair (int_range 1 2) bool)))

let print_agree (seed, m, tasks, epsilon, ftsa) =
  Printf.sprintf "seed=%d m=%d tasks=%d eps=%d %s" seed m tasks epsilon
    (if ftsa then "FTSA" else "CAFT")

let prop_check_and_adversary_agree =
  QCheck.Test.make ~count:60
    ~name:"a resisting check implies an exhaustive, no faster adversary"
    (QCheck.make agree_gen ~print:print_agree)
    (fun (seed, m, tasks, epsilon, ftsa) ->
      let _, costs = Helpers.random_instance ~seed ~m ~tasks () in
      let epsilon = min epsilon (m - 1) in
      let sched =
        if ftsa then Ftsa.run ~seed ~epsilon costs
        else Caft.run ~seed ~epsilon costs
      in
      let check = Fault_check.check ~epsilon sched in
      let adv = Inject.adversary sched in
      check.Fault_check.exhaustive
      && ((not check.Fault_check.resists)
         ||
         match adv.Inject.iv_worst with
         | None -> false
         | Some w ->
             w.Inject.w_exhaustive
             && w.Inject.w_latency >= check.Fault_check.worst_latency))

(* The adversary's exhaustive phase is the check's scan plus the
   fault-free replay: on a resisting schedule its best latency is the
   larger of the fault-free latency and the check's worst, reached by
   [[]] when the fault-free latency is at least the worst (the candidate
   order puts [[]] first on a tie) and otherwise by the lexicographically
   first crash set of [Fault_check.subsets] that reaches it. *)
let prop_exhaustive_phase_is_the_check =
  QCheck.Test.make ~count:60
    ~name:"the adversary's exhaustive best is the check's worst subset"
    (QCheck.make agree_gen ~print:print_agree)
    (fun (seed, m, tasks, epsilon, ftsa) ->
      let _, costs = Helpers.random_instance ~seed ~m ~tasks () in
      let epsilon = min epsilon (m - 1) in
      let sched =
        if ftsa then Ftsa.run ~seed ~epsilon costs
        else Caft.run ~seed ~epsilon costs
      in
      let check = Fault_check.check ~epsilon sched in
      let adv, (best_latency, best_subset) = Oracle.adversary_search sched in
      let exhaustive =
        match adv.Inject.iv_worst with
        | Some w -> w.Inject.w_exhaustive
        | None -> false
      in
      QCheck.assume
        (check.Fault_check.exhaustive && check.Fault_check.resists
       && exhaustive);
      let l0 = adv.Inject.iv_fault_free in
      let worst = check.Fault_check.worst_latency in
      let expected_subset =
        if l0 >= worst then Some []
        else
          Seq.find
            (fun crashed ->
              Float.equal worst
                (Replay.crash_from_start sched ~crashed).Replay.latency)
            (Fault_check.subsets ~n:m ~k:epsilon)
      in
      Float.equal best_latency (Float.max l0 worst)
      && Some best_subset = expected_subset)

let suite =
  [
    Alcotest.test_case "check: certified and refuted, domains x pool" `Quick
      test_check_certified_and_refuted;
    Alcotest.test_case "check: counterexample ranks across blocks" `Quick
      test_check_counterexample_ranks;
    Alcotest.test_case "check: sampled mode" `Quick test_check_sampled;
    Alcotest.test_case "check: cancel mid-block" `Quick
      test_check_cancel_mid_block;
    Alcotest.test_case "adversary: exhaustive subsets" `Quick
      test_adversary_exhaustive;
    Alcotest.test_case "adversary: beam, top-up, refine, kill" `Quick
      test_adversary_beam;
    Alcotest.test_case "engines die with the call" `Quick test_engines_freed;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 230_046 |])
      prop_check_and_adversary_agree;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 230_047 |])
      prop_exhaustive_phase_is_the_check;
  ]
