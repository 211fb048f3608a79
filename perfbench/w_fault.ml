(* fault_campaign: CAFT schedules (random DAGs of 50 tasks, m = 20,
   epsilon = 3) and two user operations on each, on one domain:
   - montecarlo: from-start and timed [Monte_carlo.run] reports of 3
     crashes, on the batched replay engine;
   - verify: [Resilience.certify], then the exhaustive [Fault_check.check]
     over all C(20,3) = 1140 crash sets, then [Inject.adversary] at its
     default budget, on the per-scenario engines.
   A replay-engine consolidation should move verify and leave montecarlo
   alone.  Replay cost depends on each schedule's shape, so a run covers
   [schedules] of them. *)

open Common

let tasks = 50
let m = 20
let epsilon = 3
let crashes = 3
let schedules = 8
let from_start_runs = 1000
let timed_runs = 500
let crash_sets = 1140

let report_digest (r : Monte_carlo.report) =
  let b = Buffer.create 256 in
  Printf.bprintf b "%d;%d;%d;" r.runs r.completed r.replays;
  (match r.latency with
  | None -> Buffer.add_string b "none;"
  | Some s ->
      Printf.bprintf b "%d;" s.Stats.n;
      add_floats b
        [ s.Stats.mean; s.Stats.stddev; s.Stats.min; s.Stats.max; s.Stats.median; s.Stats.q1; s.Stats.q3 ]);
  add_floats b [ r.worst_slowdown; r.failure_rate ];
  Buffer.contents b

(* One schedule's two operations; [Error] carries the exception text. *)
let montecarlo ~seed sched =
  try
    let from_start =
      Span.within "sim.montecarlo.from_start" (fun () ->
          Monte_carlo.run ~seed ~runs:from_start_runs ~crashes
            ~mode:Monte_carlo.From_start sched)
    in
    let timed =
      Span.within "sim.montecarlo.timed" (fun () ->
          Monte_carlo.run ~seed:(seed + 1) ~runs:timed_runs ~crashes
            ~mode:(Monte_carlo.Timed (Schedule.makespan sched)) sched)
    in
    Ok (from_start, timed)
  with e -> Error (Printexc.to_string e)

let verify sched =
  try
    let cert =
      Span.within "analysis.resilience.certify" (fun () ->
          Resilience.certify ~domains:1 sched)
    in
    let check =
      Span.within "sim.fault_check.check" (fun () ->
          Fault_check.check ~domains:1 ~static:cert ~epsilon sched)
    in
    let adversary =
      Span.within "sim.inject.adversary" (fun () -> Inject.adversary ~domains:1 sched)
    in
    Ok (cert, check, adversary)
  with e -> Error (Printexc.to_string e)

let check_montecarlo args o name = function
  | Error e -> [ name ^ " montecarlo: " ^ e ]
  | Ok (from_start, timed) ->
      List.filter_map
        (fun (mode, (r : Monte_carlo.report), runs) ->
          if r.runs = runs && r.completed = runs && r.failure_rate = 0. then None
          else
            Some
              (Printf.sprintf "%s montecarlo %s: %d of %d runs completed" name mode
                 r.completed r.runs))
        [ ("from-start", from_start, from_start_runs); ("timed", timed, timed_runs) ]
      @ check_digest args o ~key:(name ^ ".montecarlo")
          (md5 (report_digest from_start ^ report_digest timed))

let check_verify args o name = function
  | Error e -> [ name ^ " verify: " ^ e ]
  | Ok ((cert : Resilience.report), (check : Fault_check.report), (adversary : Inject.report))
    ->
      let expect what ok = if ok then [] else [ name ^ " verify: " ^ what ] in
      expect "certificate refutes" cert.rs_resists
      @ expect "replay refutes" check.resists
      @ expect "check not exhaustive" check.exhaustive
      @ expect
          (Printf.sprintf "%d crash sets checked" check.scenarios_checked)
          (check.scenarios_checked = crash_sets)
      @ expect "static and replay verdicts disagree" (check.static_agrees = Some true)
      @ expect "adversary certificate refutes" (adversary.iv_cert_resists = Some true)
      @ check_digest args o ~key:(name ^ ".verify")
          (md5
             (Printf.sprintf "%h;%s" check.worst_latency
                (Json.to_string (Inject.to_json adversary))))

let run args o =
  let rng = Rng.create args.seed in
  let seeds =
    List.init schedules (fun _ ->
        let iseed = Rng.int rng 1_000_000_000 in
        (iseed, Rng.int rng 1_000_000_000))
  in
  let setup () =
    List.map
      (fun (iseed, mc_seed) ->
        let costs, instance_s =
          time (fun () ->
              match Instance.make ~seed:iseed ~family:"random" ~tasks ~m () with
              | Ok (_, costs) -> costs
              | Error e -> failwith e)
        in
        let sched = Caft.run ~epsilon costs in
        let _, compile_s = time (fun () -> Replay.compile sched) in
        (sched, mc_seed, instance_s, compile_s))
      seeds
  in
  let setups = List.init 3 (fun _ -> time setup) in
  let prepared = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let mc_walls = ref [] and verify_walls = ref [] in
  let scenarios = ref 0 in
  let plain_walls = ref [] and traced_walls = ref [] and n_traced = ref 0 in
  repeat args (fun i ->
      let traced = traced args i in
      if traced then begin
        obs_on ~prof:false;
        Span.start ()
      end;
      let g0 = Gc.quick_stat () in
      let (mcs, mc_s), g1, (verifies, verify_s) =
        Span.within Span.root (fun () ->
            let mc =
              time (fun () ->
                  List.map (fun (sched, seed, _, _) -> montecarlo ~seed sched) prepared)
            in
            let g1 = Gc.quick_stat () in
            (mc, g1, time (fun () -> List.map (fun (sched, _, _, _) -> verify sched) prepared)))
      in
      Span.stop ();
      obs_off ();
      if traced then begin
        incr n_traced;
        traced_walls := (mc_s +. verify_s) :: !traced_walls;
        add "sim.montecarlo.scenarios" (counter "montecarlo.scenarios");
        add "sim.fault_check.scenarios" (counter "fault_check.scenarios");
        add "sim.inject.frontier_evals" (counter "stress.frontier_evals");
        add "sim.montecarlo.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words)
      end
      else begin
        plain_walls := (mc_s +. verify_s) :: !plain_walls;
        mc_walls := mc_s :: !mc_walls;
        verify_walls := verify_s :: !verify_walls;
        List.iter
          (function
            | Ok ((a : Monte_carlo.report), (b : Monte_carlo.report)) ->
                scenarios := !scenarios + a.runs + b.runs
            | Error _ -> ())
          mcs;
        List.iter
          (function
            | Ok (_, (c : Fault_check.report), (a : Inject.report)) ->
                scenarios := !scenarios + c.scenarios_checked + a.iv_evals
            | Error _ -> ())
          verifies
      end;
      List.iteri
        (fun k (mc, v) ->
          let name = string_of_int k in
          operation o (fun () -> check_montecarlo args o name mc);
          operation o (fun () -> check_verify args o name v))
        (List.combine mcs verifies);
      mc_s +. verify_s);
  e2e o "setup_s" setup_s;
  e2e o "throughput_per_s" (float_of_int !scenarios /. sum !plain_walls);
  e2e o "op_a_ms" (1000. *. median !mc_walls);
  e2e o "op_b_ms" (1000. *. median !verify_walls);
  if args.trace then begin
    let n = float_of_int !n_traced in
    let spans = Span.spans () in
    let per name = Span.total name spans /. n in
    let mc_s = per "sim.montecarlo.from_start" +. per "sim.montecarlo.timed" in
    let mc_scenarios = tallied "sim.montecarlo.scenarios" /. n in
    let subsets = tallied "sim.fault_check.scenarios" /. n in
    let evals = tallied "sim.inject.frontier_evals" /. n in
    layer o "sim.montecarlo.from_start_s" (per "sim.montecarlo.from_start");
    layer o "sim.montecarlo.timed_s" (per "sim.montecarlo.timed");
    layer o "sim.montecarlo.scenarios" mc_scenarios;
    layer o "sim.replay.batch_ns_per_scenario" (1e9 *. mc_s /. mc_scenarios);
    layer o "sim.montecarlo.minor_words_per_scenario"
      (tallied "sim.montecarlo.minor_words" /. n /. mc_scenarios);
    layer o "analysis.resilience.certify_s" (per "analysis.resilience.certify");
    layer o "sim.fault_check.check_s" (per "sim.fault_check.check");
    layer o "sim.fault_check.scenarios" subsets;
    layer o "sim.fault_check.ns_per_subset" (1e9 *. per "sim.fault_check.check" /. subsets);
    layer o "sim.inject.adversary_s" (per "sim.inject.adversary");
    layer o "sim.inject.frontier_evals" evals;
    layer o "sim.inject.ns_per_eval" (1e9 *. per "sim.inject.adversary" /. evals);
    (* set-up figures are per run: the sums over the schedules *)
    let sums f = List.map (fun (p, _) -> sum (List.map f p)) setups in
    layer o "workload.instance_s" (median (sums (fun (_, _, s, _) -> s)));
    layer o "sim.replay.compile_s" (median (sums (fun (_, _, _, c) -> c)));
    layer o "trace.coverage" (Span.coverage spans);
    layer o "trace.overhead_frac"
      (overhead ~traced_walls:!traced_walls ~plain_walls:!plain_walls)
  end
