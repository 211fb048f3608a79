(* The adversarial injector: Proposition 5.2 as a dynamic property, the
   certificate cross-check of the adversary's minimal kill set, and the
   degradation curve. *)

let sched_of ?(seed = 5) ?(m = 6) ?(tasks = 25) ?(epsilon = 1) () =
  let _, costs = Helpers.random_instance ~seed ~m ~tasks () in
  Caft.run ~seed ~epsilon costs

(* The degradation summary of the from-start crash set [procs], from a
   one-row degradation batch. *)
let degradation_of c procs =
  let m = Replay.proc_count c in
  let rows = Array.make m infinity in
  Scenario.write_from_start rows ~m 0 procs;
  Replay.batch_degradation c
    (Replay.eval_batch ~degradation:true c rows ~first:0 ~count:1)
    0

(* Proposition 5.2, dynamically: every from-start crash set of at most
   epsilon processors leaves a CAFT schedule's completion fraction at 1. *)
let test_within_epsilon_completes () =
  List.iter
    (fun (seed, epsilon) ->
      let m = 6 in
      let sched = sched_of ~seed ~m ~epsilon () in
      let c = Replay.compile sched in
      for k = 0 to epsilon do
        Seq.iter
          (fun procs ->
            let d = degradation_of c procs in
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
      let d = degradation_of (Replay.compile sched) k.Inject.k_procs in
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
    Alcotest.test_case "within epsilon completes" `Slow
      test_within_epsilon_completes;
    Alcotest.test_case "adversary certificate cross-check" `Slow
      test_adversary_certificate_crosscheck;
    Alcotest.test_case "adversary dominates monte-carlo" `Slow
      test_adversary_dominates_monte_carlo;
    Alcotest.test_case "adversary deterministic" `Quick
      test_adversary_deterministic;
    Alcotest.test_case "degradation curve" `Quick test_degradation_curve;
    Alcotest.test_case "metrics" `Quick test_metrics;
  ]
