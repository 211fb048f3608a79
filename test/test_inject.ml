(* Fault plans and the adversarial injector: degenerate-plan equivalence
   against the compiled crash engine, Proposition 5.2 as a dynamic
   property, recovery/outage/fail-silent semantics, and the certificate
   cross-check of the adversary's minimal kill set. *)

let sched_of ?(seed = 5) ?(m = 6) ?(tasks = 25) ?(epsilon = 1) () =
  let _, costs = Helpers.random_instance ~seed ~m ~tasks () in
  Caft.run ~seed ~epsilon costs

let same_outcome name (a : Replay.outcome) (b : Replay.outcome) =
  Helpers.check_bool (name ^ ": completed") b.Replay.completed
    a.Replay.completed;
  if b.Replay.completed then
    Helpers.check_float (name ^ ": latency") b.Replay.latency a.Replay.latency;
  Helpers.check_bool (name ^ ": failed tasks") true
    (a.Replay.failed_tasks = b.Replay.failed_tasks);
  Helpers.check_bool (name ^ ": replica outcomes") true
    (a.Replay.replicas = b.Replay.replicas)

(* the empty plan is exactly the fault-free replay *)
let test_empty_plan_fault_free () =
  List.iter
    (fun seed ->
      let sched = sched_of ~seed () in
      let a = Replay.eval_plan (Replay.compile sched) [] in
      let b = Replay.fault_free sched in
      same_outcome (Printf.sprintf "seed %d" seed) a b;
      Helpers.check_float
        (Printf.sprintf "seed %d: static latency" seed)
        (Schedule.latency_zero_crash sched)
        a.Replay.latency)
    [ 1; 2; 3; 4; 5 ]

(* A [Recover] on a never-crashed processor is a no-op but forces the
   plan off the degenerate fast path, so the generalized window engine
   replays pure-crash scenarios too — it must agree with [eval] exactly,
   from-start and timed, completed or failed. *)
let test_generalized_core_matches_eval () =
  List.iter
    (fun seed ->
      let m = 6 in
      let sched = sched_of ~seed ~m () in
      let c = Replay.compile sched in
      let horizon = Schedule.makespan sched in
      let subsets =
        List.init m (fun p -> [ p ])
        @ [ [ 0; 1 ]; [ 2; 4 ]; [ 3; 5 ]; [ 1; 2; 5 ] ]
      in
      List.iter
        (fun procs ->
          let spare =
            List.find (fun p -> not (List.mem p procs)) (List.init m Fun.id)
          in
          let name =
            Printf.sprintf "seed %d {%s}" seed
              (String.concat "," (List.map string_of_int procs))
          in
          (* from start *)
          let plan =
            Replay.Recover { proc = spare; at = 0. }
            :: List.map
                 (fun p -> Replay.Crash { proc = p; at = neg_infinity })
                 procs
          in
          same_outcome (name ^ " from-start") (Replay.eval_plan c plan)
            (Replay.eval_crashed c ~crashed:procs);
          (* timed: each processor dies at a distinct mid-schedule instant *)
          let crashes =
            List.mapi
              (fun i p -> (p, horizon *. float_of_int (i + 1) /. 5.))
              procs
          in
          let plan =
            Replay.Recover { proc = spare; at = 0. }
            :: List.map
                 (fun (p, tau) -> Replay.Crash { proc = p; at = tau })
                 crashes
          in
          same_outcome (name ^ " timed") (Replay.eval_plan c plan)
            (Replay.eval_timed c ~crashes))
        subsets)
    [ 1; 2; 3 ]

(* Proposition 5.2, dynamically: every from-start plan with at most
   epsilon crashes leaves a CAFT schedule's completion fraction at 1. *)
let test_within_epsilon_completes () =
  List.iter
    (fun (seed, epsilon) ->
      let m = 6 in
      let sched = sched_of ~seed ~m ~epsilon () in
      let c = Replay.compile sched in
      for k = 0 to epsilon do
        Seq.iter
          (fun procs ->
            let plan =
              List.map
                (fun p -> Replay.Crash { proc = p; at = neg_infinity })
                procs
            in
            let d = Replay.eval_plan_degraded c plan in
            Helpers.check_float
              (Printf.sprintf "seed %d eps %d: %d crashes complete" seed
                 epsilon k)
              1.
              (Replay.completion_fraction d);
            Helpers.check_float
              (Printf.sprintf "seed %d eps %d: sinks delivered" seed epsilon)
              1. (Replay.sink_fraction d))
          (Oracle.combinations m k)
      done)
    [ (1, 1); (2, 1); (3, 2) ]

(* crash + recovery: an immediate recovery is fault-free; a recovery at
   the horizon still completes an epsilon = 0 schedule (work is delayed,
   not lost) *)
let test_recovery () =
  let sched = sched_of ~seed:7 ~epsilon:0 () in
  let c = Replay.compile sched in
  let base = Replay.fault_free sched in
  (* a processor that actually hosts work *)
  let p =
    List.find
      (fun p -> Schedule.on_proc sched p <> [])
      (List.init (Replay.proc_count c) Fun.id)
  in
  (* permanent crash on an epsilon = 0 schedule loses tasks *)
  let dead =
    Replay.eval_plan c [ Replay.Crash { proc = p; at = neg_infinity } ]
  in
  Helpers.check_bool "permanent crash fails" false dead.Replay.completed;
  (* crash healed before time zero changes nothing *)
  let healed =
    Replay.eval_plan c
      [
        Replay.Crash { proc = p; at = neg_infinity };
        Replay.Recover { proc = p; at = 0. };
      ]
  in
  same_outcome "healed at 0" healed base;
  (* a mid-schedule down window only delays *)
  let delayed =
    Replay.eval_plan c
      [
        Replay.Crash { proc = p; at = 0. };
        Replay.Recover { proc = p; at = Schedule.makespan sched };
      ]
  in
  Helpers.check_bool "outage window completes" true delayed.Replay.completed;
  Helpers.check_bool "outage window delays" true
    (delayed.Replay.latency >= base.Replay.latency -. 1e-9)

(* healing link outages delay traffic but never lose it, unlike an
   outage that never heals (test_link_failures.ml) *)
let test_link_outage_heals () =
  let sched = sched_of ~seed:9 ~m:4 ~epsilon:0 () in
  let c = Replay.compile sched in
  let base = Replay.fault_free sched in
  let horizon = Schedule.makespan sched in
  let outages =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if i = j then None
            else
              Some
                (Replay.Link_outage
                   {
                     Netstate.o_src = i;
                     o_dst = j;
                     o_from = 0.;
                     o_until = horizon;
                   }))
          (List.init 4 Fun.id))
      (List.init 4 Fun.id)
  in
  let out = Replay.eval_plan c outages in
  Helpers.check_bool "outage completes" true out.Replay.completed;
  Helpers.check_bool "outage delays" true
    (out.Replay.latency >= base.Replay.latency -. 1e-9)

(* fail-silent task faults: one lost result per task is masked by the
   epsilon = 1 replication; losing every replica of a task is not *)
let test_lose_result () =
  let sched = sched_of ~seed:11 ~epsilon:1 () in
  let c = Replay.compile sched in
  let v = Dag.task_count (Schedule.dag sched) in
  for t = 0 to v - 1 do
    let out =
      Replay.eval_plan c [ Replay.Lose_result { task = t; replica = 0 } ]
    in
    Helpers.check_bool
      (Printf.sprintf "task %d: one loss masked" t)
      true out.Replay.completed;
    (match out.Replay.replicas.(t).(0) with
    | Replay.Lost _ -> ()
    | _ -> Alcotest.failf "task %d: replica 0 not marked Lost" t);
    let d =
      Replay.eval_plan_degraded c
        [
          Replay.Lose_result { task = t; replica = 0 };
          Replay.Lose_result { task = t; replica = 1 };
        ]
    in
    Helpers.check_bool
      (Printf.sprintf "task %d: all replicas lost kills" t)
      true
      (Replay.completion_fraction d < 1.)
  done

let test_plan_validation () =
  let sched = sched_of () in
  let c = Replay.compile sched in
  Alcotest.check_raises "processor out of range"
    (Invalid_argument "Replay.eval_plan: processor out of range") (fun () ->
      ignore (Replay.eval_plan c [ Replay.Crash { proc = 99; at = 0. } ]));
  Alcotest.check_raises "replica out of range"
    (Invalid_argument "Replay.eval_plan: replica out of range") (fun () ->
      ignore
        (Replay.eval_plan c
           [
             Replay.Recover { proc = 0; at = 0. };
             Replay.Lose_result { task = 0; replica = 5 };
           ]))

(* -- the adversary ------------------------------------------------------ *)

(* The min kill set is never smaller than the certificate's bound: when
   epsilon-resistance is certified no epsilon-subset can kill, so the
   kill set must have exactly epsilon + 1 processors; when refuted, the
   counterexample itself is the (certified-minimal) kill set. *)
let test_adversary_certificate_crosscheck () =
  List.iter
    (fun seed ->
      let sched = sched_of ~seed () in
      let eps = Schedule.epsilon sched in
      let r = Inject.adversary ~budget:2_000 sched in
      Helpers.check_int "epsilon" eps r.Inject.iv_epsilon;
      Helpers.check_bool "evals within budget" true
        (r.Inject.iv_evals <= r.Inject.iv_budget);
      let k =
        match r.Inject.iv_min_kill with
        | Some k -> k
        | None -> Alcotest.fail "no kill set found"
      in
      let size = List.length k.Inject.k_procs in
      (match r.Inject.iv_cert_resists with
      | Some true ->
          Helpers.check_int "certified kill size" (eps + 1) size;
          Helpers.check_bool "kill certified minimal" true
            k.Inject.k_certified
      | Some false ->
          Helpers.check_bool "refutation within tolerance" true (size <= eps)
      | None -> ());
      (* the kill set actually kills *)
      let d =
        Replay.eval_plan_degraded
          (Replay.compile sched)
          (List.map
             (fun p -> Replay.Crash { proc = p; at = neg_infinity })
             k.Inject.k_procs)
      in
      Helpers.check_bool "kill set loses a task" true
        (Replay.completion_fraction d < 1.);
      Helpers.check_float "reported degradation agrees"
        (Replay.completion_fraction d)
        (Replay.completion_fraction k.Inject.k_degradation))
    [ 5; 6; 7 ]

(* With the subset space exhausted, the adversary's worst-case latency
   dominates any Monte-Carlo sample of from-start scenarios. *)
let test_adversary_dominates_monte_carlo () =
  let sched = sched_of ~seed:5 () in
  let r = Inject.adversary ~budget:2_000 sched in
  let w =
    match r.Inject.iv_worst with
    | Some w -> w
    | None -> Alcotest.fail "no completed plan"
  in
  Helpers.check_bool "subset space exhausted" true w.Inject.w_exhaustive;
  Helpers.check_bool "slowdown >= 1" true (w.Inject.w_slowdown >= 1. -. 1e-9);
  let mc =
    Monte_carlo.run ~seed:123 ~runs:300
      ~crashes:(Schedule.epsilon sched)
      ~mode:Monte_carlo.From_start sched
  in
  Helpers.check_bool "adversary >= Monte-Carlo max" true
    (w.Inject.w_slowdown >= mc.Monte_carlo.worst_slowdown -. 1e-9)

let test_adversary_deterministic () =
  let sched = sched_of ~seed:6 () in
  let a = Inject.adversary ~seed:3 ~budget:500 sched in
  let b = Inject.adversary ~seed:3 ~budget:500 sched in
  Helpers.check_bool "reports identical" true (a = b)

(* -- degradation curve -------------------------------------------------- *)

let test_degradation_curve () =
  let sched = sched_of ~seed:5 () in
  let eps = Schedule.epsilon sched in
  let curve =
    Monte_carlo.degradation_curve ~seed:2 ~runs:40 ~max_crashes:3
      ~mode:Monte_carlo.From_start sched
  in
  Helpers.check_int "four points" 4 (List.length curve);
  List.iter
    (fun (k, (r : Monte_carlo.report)) ->
      if k <= eps then begin
        (* within tolerance: full completion, no degradation columns *)
        Helpers.check_int
          (Printf.sprintf "%d crashes all complete" k)
          r.Monte_carlo.runs r.Monte_carlo.completed;
        Helpers.check_bool
          (Printf.sprintf "%d crashes: no degradation stats" k)
          true
          (r.Monte_carlo.degradation = None)
      end
      else
        match r.Monte_carlo.degradation with
        | None -> Alcotest.failf "%d crashes: degradation stats missing" k
        | Some d ->
            let mean = d.Monte_carlo.deg_completion_mean in
            let min = d.Monte_carlo.deg_completion_min in
            Helpers.check_bool
              (Printf.sprintf "%d crashes: fractions ordered" k)
              true
              (0. <= min && min <= mean && mean <= 1.);
            Helpers.check_bool
              (Printf.sprintf "%d crashes: sinks in range" k)
              true
              (0. <= d.Monte_carlo.deg_sink_mean
              && d.Monte_carlo.deg_sink_mean <= 1.);
            (* the pp gains a degradation line only beyond epsilon *)
            let s = Format.asprintf "%a" Monte_carlo.pp r in
            let contains_degradation =
              let pat = "degradation:" in
              let n = String.length pat in
              let rec scan i =
                i + n <= String.length s
                && (String.sub s i n = pat || scan (i + 1))
              in
              scan 0
            in
            Helpers.check_bool
              (Printf.sprintf "%d crashes: pp prints degradation" k)
              true contains_degradation)
    curve

(* -- observability ------------------------------------------------------ *)

let test_metrics () =
  Obs_metrics.reset ();
  Obs_metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs_metrics.set_enabled false)
    (fun () ->
      let sched = sched_of ~seed:5 () in
      let c = Replay.compile sched in
      ignore (Replay.eval_plan c []);
      ignore (Replay.eval_plan c [ Replay.Crash { proc = 0; at = 0. } ]);
      (match Obs_metrics.find "inject.plans" with
      | Some (Obs_metrics.Counter n) -> Helpers.check_int "inject.plans" 2 n
      | _ -> Alcotest.fail "inject.plans not registered");
      let r = Inject.adversary ~budget:200 sched in
      (match Obs_metrics.find "stress.frontier_evals" with
      | Some (Obs_metrics.Counter n) ->
          Helpers.check_int "stress.frontier_evals" r.Inject.iv_evals n
      | _ -> Alcotest.fail "stress.frontier_evals not registered");
      (* a beam search runs every profiled phase; the profiler only
         attributes time and leaves the evaluation count alone *)
      let sched = sched_of ~seed:6 ~m:10 ~epsilon:2 () in
      Obs_metrics.reset ();
      Obs_prof.reset ();
      Obs_prof.set_enabled true;
      let r =
        Fun.protect
          ~finally:(fun () -> Obs_prof.set_enabled false)
          (fun () -> Inject.adversary ~budget:80 ~beam:2 sched)
      in
      let phases = (Obs_prof.report ()).Obs_prof.r_phases in
      List.iter
        (fun name ->
          Helpers.check_bool (name ^ " profiled") true
            (List.exists
               (fun p ->
                 p.Obs_prof.ph_name = name && p.Obs_prof.ph_count = 1)
               phases))
        [ "stress.subsets"; "stress.refine"; "stress.kill" ];
      Helpers.check_int "evals unchanged under the profiler"
        (Oracle.adversary ~budget:80 ~beam:2 sched).Inject.iv_evals
        r.Inject.iv_evals;
      match Obs_metrics.find "stress.frontier_evals" with
      | Some (Obs_metrics.Counter n) ->
          Helpers.check_int "profiled stress.frontier_evals" r.Inject.iv_evals n
      | _ -> Alcotest.fail "stress.frontier_evals not registered")

let suite =
  [
    Alcotest.test_case "empty plan is fault-free" `Quick
      test_empty_plan_fault_free;
    Alcotest.test_case "generalized core matches eval" `Slow
      test_generalized_core_matches_eval;
    Alcotest.test_case "within epsilon completes" `Slow
      test_within_epsilon_completes;
    Alcotest.test_case "crash recovery" `Quick test_recovery;
    Alcotest.test_case "link outage heals" `Quick test_link_outage_heals;
    Alcotest.test_case "lose result" `Slow test_lose_result;
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "adversary certificate cross-check" `Slow
      test_adversary_certificate_crosscheck;
    Alcotest.test_case "adversary dominates monte-carlo" `Slow
      test_adversary_dominates_monte_carlo;
    Alcotest.test_case "adversary deterministic" `Quick
      test_adversary_deterministic;
    Alcotest.test_case "degradation curve" `Quick test_degradation_curve;
    Alcotest.test_case "metrics" `Quick test_metrics;
  ]
