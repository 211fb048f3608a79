(* ftsched: command-line driver for the fault-tolerant scheduling library.

   Subcommands:
     schedule    build one schedule on a random instance and inspect it
     crash       replay a schedule under a crash scenario
     check       verify epsilon-fault tolerance by exhaustive/sampled replay
     analyze     static epsilon-resistance certificate, mapping bounds, lints
     inspect     utilization/communication metrics, bounds, save/load
     montecarlo  random fault-injection campaigns on one schedule
     stress      adversarial fault injection and graceful degradation
     topology    inspect a sparse interconnect and its routing tables
     campaign    regenerate one of the paper's figures *)

open Cmdliner

(* -- shared options ---------------------------------------------------- *)

let default = Request.default

let seed_t =
  let doc = "Random seed (drives the instance and tie-breaking)." in
  Arg.(value & opt int default.seed & info [ "seed" ] ~docv:"N" ~doc)

let m_t =
  let doc = "Number of processors." in
  Arg.(value & opt int default.m & info [ "m"; "processors" ] ~docv:"M" ~doc)

let tasks_t =
  let doc = "Number of tasks of the random DAG." in
  Arg.(value & opt int default.tasks & info [ "tasks" ] ~docv:"V" ~doc)

let epsilon_t =
  let doc = "Number of processor failures the schedule must tolerate." in
  Arg.(
    value & opt int default.epsilon & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc)

let granularity_t =
  let doc = "Target task-graph granularity g(G, P)." in
  Arg.(
    value
    & opt float default.granularity
    & info [ "granularity"; "g" ] ~docv:"G" ~doc)

(* "a, b, c or d", for two names or more *)
let alternatives names =
  let rev = List.rev names in
  String.concat ", " (List.rev (List.tl rev)) ^ " or " ^ List.hd rev

let algo_t =
  let doc =
    Printf.sprintf "Scheduling algorithm: %s."
      (alternatives (List.map fst Request.algos))
  in
  Arg.(
    value
    & opt (enum Request.algos) default.algo
    & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)

let model_t =
  let doc =
    (* from the most to the least contended *)
    Printf.sprintf "Communication model: %s."
      (alternatives
         (List.map Request.model_name
            Netstate.[ One_port; Multiport 2; Multiport 4; Macro_dataflow ]))
  in
  Arg.(
    value
    & opt (enum Request.models) default.model
    & info [ "model" ] ~docv:"MODEL" ~doc)

let family_t =
  let doc =
    Printf.sprintf "Task-graph family: %s."
      (String.concat ", " Instance.families)
  in
  Arg.(
    value & opt string default.family & info [ "family" ] ~docv:"FAMILY" ~doc)

let file_arg name ~doc =
  Arg.(value & opt (some string) None & info [ name ] ~docv:"FILE" ~doc)

let flag_arg name ~doc = Arg.(value & flag & info [ name ] ~doc)

let format_arg name ~doc =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ name ] ~docv:"FMT" ~doc)

let import_t =
  let doc =
    "Import the task graph from a DOT file instead of generating one \
     (numeric edge labels become data volumes)."
  in
  file_arg "import" ~doc

(* The eight options of a scheduling request, as one term; [analyze]
   supplies its own optional tolerance through [epsilon]. *)
let request_of epsilon =
  let mk seed m tasks epsilon granularity algo model family =
    { Request.seed; family; tasks; m; epsilon; granularity; algo; model }
  in
  Term.(
    const mk $ seed_t $ m_t $ tasks_t $ epsilon $ granularity_t $ algo_t
    $ model_t $ family_t)

let request_t = request_of epsilon_t

let domains_t ~doc =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

(* Bad option values the cmdliner combinators cannot type-check
   themselves (family names, topology shapes) are reported like bad
   input files: one structured line on stderr and exit 2, never a raw
   exception backtrace. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "ftsched: error: %s\n" msg;
      exit 2)
    fmt

(* Numeric options are checked where their names are known: a bad value
   is a usage error, never an [Invalid_argument] from deep in the
   library. *)
let at_least name lo v =
  if v < lo then usage_error "%s must be at least %d (got %d)" name lo v

(* -- input hardening ----------------------------------------------------
   Malformed user-supplied files must not surface as raw OCaml exception
   backtraces: every load funnels through these helpers, which print one
   structured line (file, line, reason) on stderr and exit 2. *)

let input_error path ?line reason =
  let reason =
    (* Sys_error messages already lead with the file name *)
    let pre = path ^ ": " in
    let n = String.length pre in
    if String.length reason > n && String.sub reason 0 n = pre then
      String.sub reason n (String.length reason - n)
    else reason
  in
  (match line with
  | Some l -> Printf.eprintf "ftsched: error: %s:%d: %s\n" path l reason
  | None -> Printf.eprintf "ftsched: error: %s: %s\n" path reason);
  exit 2

let load_dag_file path =
  try Dot.parse_file ~default_volume:100. path with
  | Dot.Parse_error { line; message } -> input_error path ~line message
  | Dag.Cycle tasks ->
      input_error path
        (Printf.sprintf "graph has a dependency cycle through tasks {%s}"
           (String.concat "," (List.map string_of_int tasks)))
  | Sys_error msg -> input_error path msg
  | Invalid_argument msg | Failure msg -> input_error path msg

let load_schedule_file path =
  try Schedule_io.of_file path with
  | Schedule_io.Parse_error { line; message } -> input_error path ~line message
  | Sys_error msg -> input_error path msg

(* An imported graph is rescaled to [granularity] by its communication,
   so it must carry some: a positive, finite total edge volume. *)
let load_communicating_dag path =
  let dag = load_dag_file path in
  let volume = Dag.fold_edges (fun _ _ v acc -> acc +. v) dag 0. in
  if not (volume > 0. && Float.is_finite volume) then
    input_error path
      "graph has no positive finite communication volume to rescale to the \
       target granularity";
  dag

let make_instance ?import (r : Request.t) =
  at_least "-m/--processors" 1 r.m;
  if import = None then at_least "--tasks" 1 r.tasks;
  if not (r.granularity > 0. && Float.is_finite r.granularity) then
    usage_error "--granularity must be a positive finite number (got %g)"
      r.granularity;
  (* a generated instance is the serve daemon's: [Request] builds both *)
  let result =
    match import with
    | None -> Request.instance r
    | Some path ->
        let dag = load_communicating_dag path in
        Result.map
          (fun costs -> (dag, costs))
          (Instance.costs (Rng.create r.seed) ~m:r.m
             ~granularity:r.granularity dag)
  in
  match result with
  | Ok instance -> instance
  | Error msg when msg = Instance.no_communication ->
      usage_error "--granularity %g: %s" r.granularity msg
  | Error msg -> usage_error "%s" msg

(* A tolerance to verify may exceed a schedule's replication degree (to
   show that it does not resist), but not its processor count. *)
let check_tolerance ~m epsilon =
  at_least "--epsilon" 0 epsilon;
  if epsilon > m then
    usage_error "--epsilon %d exceeds the %d processors of the schedule"
      epsilon m

let run_algo (r : Request.t) costs =
  (let m = Platform.proc_count (Costs.platform costs) in
   if r.algo = Request.Heft then check_tolerance ~m r.epsilon
   else begin
     at_least "--epsilon" 0 r.epsilon;
     if r.epsilon >= m then
       usage_error "--epsilon %d needs at least %d processors (got -m %d)"
         r.epsilon (r.epsilon + 1) m
   end);
  Request.schedule r costs

let build ?import r =
  let _, costs = make_instance ?import r in
  run_algo r costs

(* [inspect] and [analyze] judge a saved schedule or build one. *)
let build_or_load ?import ~load r =
  match load with
  | Some path -> load_schedule_file path
  | None -> build ?import r

(* -- observability ------------------------------------------------------ *)

type obs = {
  o_trace : string option;
  o_metrics : bool;
  o_metrics_format : [ `Text | `Json ];
  o_metrics_out : string option;
  o_profile : bool;
  o_profile_out : string option;
}

let obs_t =
  let trace_t =
    let doc =
      "Record a Chrome trace-event timeline of the run and write it to \
       $(docv) (loadable in Perfetto or chrome://tracing)."
    in
    file_arg "trace" ~doc
  in
  let metrics_t =
    flag_arg "metrics"
      ~doc:
        "Collect scheduler metrics (decision counters, contention \
         histograms) and print them after the command output."
  in
  let metrics_format_t =
    format_arg "metrics-format" ~doc:"Metrics dump format: text or json."
  in
  let metrics_out_t =
    let doc = "Write the metrics dump to $(docv) instead of stdout." in
    file_arg "metrics-out" ~doc
  in
  let profile_t =
    flag_arg "profile"
      ~doc:
        "Profile the run: per-phase wall/self time, call counts and GC \
         deltas attributed per domain, plus parallel worker busy/steal \
         telemetry, printed as a table after the command output."
  in
  let profile_out_t =
    let doc =
      "Write the profile report as JSON (ftsched/profile/v1) to $(docv); \
       implies $(b,--profile) without the text table."
    in
    file_arg "profile-out" ~doc
  in
  let mk o_trace o_metrics o_metrics_format o_metrics_out o_profile
      o_profile_out =
    { o_trace; o_metrics; o_metrics_format; o_metrics_out; o_profile;
      o_profile_out }
  in
  Term.(
    const mk $ trace_t $ metrics_t $ metrics_format_t $ metrics_out_t
    $ profile_t $ profile_out_t)

let write_file path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* Runs a command body with tracing/metrics switched on as requested and
   dumps both afterwards.  The body returns its exit code (instead of
   calling [exit]) so failure paths still get their dumps. *)
let with_obs obs f =
  let profiling = obs.o_profile || obs.o_profile_out <> None in
  if obs.o_metrics then Obs.Metrics.set_enabled true;
  if profiling then begin
    Obs.Prof.reset ();
    Obs.Prof.set_enabled true
  end;
  (* Arm the exit-time flush before starting: an [exit code] below (or a
     crash mid-run) still leaves a loadable trace. *)
  Option.iter Obs.Trace.set_output obs.o_trace;
  if obs.o_trace <> None then Obs.Trace.start ();
  let code = f () in
  Option.iter Obs.Trace.write obs.o_trace;
  if profiling then begin
    let r = Obs.Prof.report () in
    Obs.Prof.set_enabled false;
    (match obs.o_profile_out with
    | Some path -> write_file path (Json.to_string (Obs.Prof.to_json r) ^ "\n")
    | None -> ());
    if obs.o_profile then
      print_string (Text_table.to_string (Obs.Prof.to_table r) ^ "\n")
  end;
  if obs.o_metrics then begin
    let dump =
      match obs.o_metrics_format with
      | `Text -> Text_table.to_string (Obs.Metrics.to_table ()) ^ "\n"
      | `Json -> Json.to_string (Obs.Metrics.to_json ()) ^ "\n"
    in
    match obs.o_metrics_out with
    | None -> print_string dump
    | Some path -> write_file path dump
  end;
  if code <> 0 then exit code

(* -- schedule ----------------------------------------------------------- *)

let schedule_cmd =
  let gantt_t =
    flag_arg "gantt" ~doc:"Print an ASCII Gantt chart."
  in
  let comm_t =
    flag_arg "show-comm" ~doc:"Add send/receive port rows to the Gantt chart."
  in
  let dot_t =
    file_arg "dot" ~doc:"Export the task graph in DOT format."
  in
  let stream_t =
    file_arg "stream"
      ~doc:
        "Stream the schedule to $(docv) while it is built instead of \
         materializing it (CAFT only): the million-task path.  The file \
         is the usual ftsched-schedule format; summary, validation, \
         Gantt and DOT output are skipped."
  in
  let run (r : Request.t) import gantt show_comm dot stream obs =
    with_obs obs @@ fun () ->
    let dag, costs = make_instance ?import r in
    match stream with
    | Some path ->
        if r.algo <> Request.Caft then begin
          Format.eprintf "--stream is only supported for CAFT@.";
          1
        end
        else begin
          Caft.run_stream ~model:r.model ~seed:r.seed ~epsilon:r.epsilon ~path
            costs;
          Format.printf "streamed %d tasks x %d replicas to %s@."
            (Dag.task_count dag) (r.epsilon + 1) path;
          0
        end
    | None ->
    let sched = run_algo r costs in
    (* output files first: a reader closing stdout early (| head) must not
       cost them *)
    Option.iter (fun path -> Dot.to_file path dag) dot;
    Format.printf "%a@." Schedule.pp_summary sched;
    (* width is quadratic (transitive closure); past the cap print n/a
       instead of failing the whole run *)
    let width =
      if Dag.task_count dag <= Dag.transitive_closure_cap then
        string_of_int (Dag.width dag)
      else "n/a"
    in
    Format.printf "graph: %d tasks, %d edges, width %s, granularity %.2f@."
      (Dag.task_count dag) (Dag.edge_count dag) width
      (Granularity.compute costs);
    (match Validate.run sched with
    | [] -> Format.printf "validation: ok@."
    | vs ->
        Format.printf "validation: %d violations@." (List.length vs);
        List.iter (fun v -> Format.printf "  %a@." Validate.pp_violation v) vs);
    if gantt then Gantt.print ~show_comm sched;
    0
  in
  let term =
    Term.(
      const run $ request_t $ import_t $ gantt_t $ comm_t $ dot_t $ stream_t
      $ obs_t)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Build one fault-tolerant schedule and inspect it")
    term

(* -- crash -------------------------------------------------------------- *)

let crash_cmd =
  let crashed_t =
    Arg.(
      value
      & opt (list int) []
      & info [ "crash" ] ~docv:"P1,P2" ~doc:"Processors that fail (from time 0).")
  in
  let random_t =
    Arg.(
      value & opt int 0
      & info [ "random-crashes" ] ~docv:"K"
          ~doc:"Crash K processors chosen uniformly instead of --crash.")
  in
  let run (r : Request.t) crashed random_crashes obs =
    List.iter
      (fun p ->
        if p < 0 || p >= r.m then
          usage_error "--crash %d: processor out of range [0, %d)" p r.m)
      crashed;
    with_obs obs @@ fun () ->
    let sched = build r in
    let crashed =
      if random_crashes > 0 then
        Scenario.uniform_procs (Rng.create (r.seed + 17)) ~m:r.m
          ~count:random_crashes
      else crashed
    in
    let out = Replay.crash_from_start sched ~crashed in
    Format.printf "schedule %s: latency %.3f (0 crash), upper bound %.3f@."
      (Schedule.algorithm sched)
      (Schedule.latency_zero_crash sched)
      (Schedule.latency_upper_bound sched);
    Format.printf "crashed processors: {%s}@."
      (String.concat "," (List.map string_of_int crashed));
    if out.Replay.completed then
      Format.printf "replay: completed, real latency %.3f@." out.Replay.latency
    else
      Format.printf "replay: FAILED, starved tasks {%s}@."
        (String.concat "," (List.map string_of_int out.Replay.failed_tasks));
    0
  in
  let term =
    Term.(
      const run $ request_t $ crashed_t $ random_t $ obs_t)
  in
  Cmd.v (Cmd.info "crash" ~doc:"Replay a schedule under processor failures") term

(* -- check -------------------------------------------------------------- *)

let check_cmd =
  let domains_t =
    domains_t
      ~doc:
        "Replay the crash sets over N domains (the report is identical for \
         any N)."
  in
  let run (r : Request.t) domains obs =
    with_obs obs @@ fun () ->
    let sched = build r in
    let report = Fault_check.check ?domains ~epsilon:r.epsilon sched in
    Format.printf "%s, epsilon=%d: %s (%d scenarios%s)@."
      (Schedule.algorithm sched) r.epsilon
      (if report.Fault_check.resists then "resists" else "DOES NOT RESIST")
      report.Fault_check.scenarios_checked
      (if report.Fault_check.exhaustive then ", exhaustive" else ", sampled");
    (match report.Fault_check.counterexample with
    | None ->
        Format.printf "worst completed-scenario latency: %.3f@."
          report.Fault_check.worst_latency
    | Some (crashed, failed) ->
        Format.printf "counterexample: crash {%s} starves tasks {%s}@."
          (String.concat "," (List.map string_of_int crashed))
          (String.concat "," (List.map string_of_int failed)));
    if report.Fault_check.resists then 0 else 1
  in
  let term =
    Term.(
      const run $ request_t $ domains_t $ obs_t)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Verify fault tolerance by crash-set enumeration")
    term

(* -- inspect -------------------------------------------------------------- *)

let inspect_cmd =
  let save_t =
    file_arg "save" ~doc:"Save the schedule (text format)."
  in
  let load_t =
    file_arg "load"
      ~doc:"Inspect a previously saved schedule instead of building one."
  in
  let explain_t =
    flag_arg "explain"
      ~doc:"Print the critical chain that determines the latency."
  in
  let run r import save load explain =
    let sched = build_or_load ?import ~load r in
    Option.iter (fun path -> Schedule_io.to_file path sched) save;
    Format.printf "%a@.@." Schedule.pp_summary sched;
    Format.printf "%a@." Metrics.pp (Metrics.analyze sched);
    let costs = Schedule.costs sched in
    Format.printf "lower bounds: critical path %.3f, work %.3f@."
      (Bounds.critical_path costs) (Bounds.work costs);
    (match Validate.run sched with
    | [] -> Format.printf "validation: ok@."
    | vs -> Format.printf "validation: %d violations!@." (List.length vs));
    if explain then begin
      Format.printf "@.critical chain (comm share %.0f%%):@."
        (100. *. Explain.comm_share sched);
      Format.printf "@[<v>%a@]@." Explain.pp (Explain.critical_chain sched)
    end
  in
  let term =
    Term.(
      const run $ request_t $ import_t $ save_t $ load_t $ explain_t)
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Analyze a schedule: utilization, communication, bounds; save/load")
    term

(* -- analyze ------------------------------------------------------------- *)

let analyze_cmd =
  let eps_opt_t =
    let doc =
      "Tolerance to certify; also drives the replication degree when \
       building a schedule (default: the schedule's replication degree)."
    in
    Arg.(value & opt (some int) None & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc)
  in
  let format_t = format_arg "format" ~doc:"Output format: text or json." in
  let certificate_t =
    file_arg "certificate"
      ~doc:"Write the standalone resistance certificate (JSON) to FILE."
  in
  let cross_check_t =
    flag_arg "cross-check"
      ~doc:
        "Also replay crash scenarios with the dynamic checker and \
         report whether it agrees with the static certificate."
  in
  let load_t =
    file_arg "load"
      ~doc:"Analyze a previously saved schedule instead of building one."
  in
  let domains_t =
    domains_t ~doc:"Parallelize per-task certification over N domains."
  in
  let run epsilon (r : Request.t) import load format certificate cross_check
      domains =
    let r = { r with epsilon = Option.value epsilon ~default:r.epsilon } in
    let sched = build_or_load ?import ~load r in
    Option.iter
      (check_tolerance ~m:(Platform.proc_count (Schedule.platform sched)))
      epsilon;
    let report = Analysis_report.analyze ?epsilon ?domains sched in
    Option.iter
      (fun path ->
        match report.Analysis_report.a_certificate with
        | None -> prerr_endline "no certificate to write (analysis overflowed)"
        | Some c ->
            write_file path (Json.to_string (Certificate.to_json c) ^ "\n"))
      certificate;
    (match format with
    | `Json -> print_endline (Json.to_string (Analysis_report.to_json report))
    | `Text ->
        Format.printf "@[<v>%a@]@?" Analysis_report.pp report;
        if cross_check then begin
          match report.Analysis_report.a_resilience with
          | None ->
              Format.printf
                "cross-check: skipped (no static verdict to compare)@."
          | Some static ->
              let dynamic =
                Fault_check.check ~static
                  ~epsilon:report.Analysis_report.a_epsilon sched
              in
              Format.printf
                "cross-check: replay %s after %d scenarios (%s), static \
                 certificate %s@."
                (if dynamic.Fault_check.resists then "resists"
                 else "does not resist")
                dynamic.Fault_check.scenarios_checked
                (if dynamic.Fault_check.exhaustive then "exhaustive"
                 else "sampled")
                (match dynamic.Fault_check.static_agrees with
                | Some true -> "agrees"
                | Some false -> "DISAGREES"
                | None -> "not compared")
        end);
    if not (Analysis_report.ok report) then exit 1
  in
  let term =
    Term.(
      const run $ eps_opt_t
      $ request_of (const default.epsilon)
      $ import_t $ load_t $ format_t $ certificate_t $ cross_check_t
      $ domains_t)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically certify \xCE\xB5-resistance, verify mapping bounds and \
          lint the schedule")
    term

(* -- montecarlo ------------------------------------------------------------ *)

let montecarlo_cmd =
  let runs_t =
    Arg.(value & opt int 1000 & info [ "runs" ] ~docv:"N" ~doc:"Number of scenarios.")
  in
  let crashes_t =
    Arg.(
      value & opt int 1
      & info [ "crashes" ] ~docv:"K" ~doc:"Processors crashed per scenario.")
  in
  let timed_t =
    flag_arg "timed"
      ~doc:
        "Crash at uniform random instants within the schedule horizon \
         instead of from time zero."
  in
  let domains_t =
    domains_t
      ~doc:
        "Evaluate the replays over N domains (the report is identical for \
         any N)."
  in
  let run (r : Request.t) runs crashes timed domains obs =
    at_least "--runs" 1 runs;
    at_least "--crashes" 0 crashes;
    with_obs obs @@ fun () ->
    let sched = build r in
    let mode =
      if timed then Monte_carlo.Timed (Schedule.makespan sched)
      else Monte_carlo.From_start
    in
    Format.printf
      "%s, epsilon=%d, %d scenarios of %d %s crashes (latency with 0 crash: \
       %.3f)@."
      (Schedule.algorithm sched) r.epsilon runs crashes
      (if timed then "timed" else "from-start")
      (Schedule.latency_zero_crash sched);
    let report =
      Monte_carlo.run ~seed:(r.seed + 1) ~runs ?domains ~crashes ~mode sched
    in
    Format.printf "%a@." Monte_carlo.pp report;
    0
  in
  let term =
    Term.(
      const run $ request_t $ runs_t $ crashes_t $ timed_t $ domains_t $ obs_t)
  in
  Cmd.v
    (Cmd.info "montecarlo" ~doc:"Monte-Carlo fault injection on one schedule")
    term

(* -- stress -------------------------------------------------------------- *)

let stress_cmd =
  let budget_t =
    let doc =
      "Adversary search budget (frontier evaluations): small (2k), medium \
       (20k) or large (200k)."
    in
    Arg.(
      value
      & opt (enum [ ("small", 2_000); ("medium", 20_000); ("large", 200_000) ])
          20_000
      & info [ "budget" ] ~docv:"SIZE" ~doc)
  in
  let beyond_t =
    let doc =
      "Sweep the degradation curve up to K crashes beyond epsilon (0 \
       disables the sweep)."
    in
    Arg.(value & opt int 2 & info [ "beyond-epsilon" ] ~docv:"K" ~doc)
  in
  let runs_t =
    Arg.(
      value & opt int 200
      & info [ "runs" ] ~docv:"N"
          ~doc:"Monte-Carlo scenarios per degradation-curve point.")
  in
  let json_t =
    flag_arg "json" ~doc:"Emit the full report as JSON on stdout."
  in
  let domains_t =
    domains_t
      ~doc:
        "Parallelize the adversary's replays, the static certification and \
         the degradation sweep over N domains (the report is identical for \
         any N)."
  in
  let run (r : Request.t) import budget beyond runs json domains obs =
    at_least "--runs" 1 runs;
    with_obs obs @@ fun () ->
    let sched = build ?import r in
    (* the schedule's actual tolerance (0 for unreplicated baselines),
       not the requested one: the invariant below is about what the
       schedule guarantees *)
    let epsilon = Schedule.epsilon sched in
    let report = Inject.adversary ~seed:(r.seed + 23) ~budget ?domains sched in
    let curve =
      if beyond <= 0 then []
      else
        Monte_carlo.degradation_curve ~seed:(r.seed + 1) ~runs ?domains
          ~max_crashes:(min r.m (epsilon + beyond))
          ~mode:Monte_carlo.From_start sched
    in
    (* the dynamic half of Proposition 5.2: within tolerance, every
       sampled scenario must complete *)
    let within_eps_ok =
      List.for_all
        (fun (k, (mc : Monte_carlo.report)) ->
          k > epsilon || mc.Monte_carlo.completed = mc.Monte_carlo.runs)
        curve
    in
    (* a point without degradation completed every task *)
    let completion (mc : Monte_carlo.report) =
      match mc.Monte_carlo.degradation with
      | Some d ->
          (d.Monte_carlo.deg_completion_mean, d.Monte_carlo.deg_completion_min)
      | None -> (1., 1.)
    in
    (if json then
       let curve_json =
         List.map
           (fun (k, (mc : Monte_carlo.report)) ->
             let cm, cmin = completion mc in
             Json.Obj
               [
                 ("crashes", Json.Int k);
                 ("runs", Json.Int mc.Monte_carlo.runs);
                 ("completed", Json.Int mc.Monte_carlo.completed);
                 ("completion_mean", Json.Float cm);
                 ("completion_min", Json.Float cmin);
                 ("worst_slowdown", Json.Float mc.Monte_carlo.worst_slowdown);
               ])
           curve
       in
       print_endline
         (Json.to_string
            (Json.Obj
               [
                 ("stress", Inject.to_json report);
                 ("degradation_curve", Json.List curve_json);
                 ("within_epsilon_ok", Json.Bool within_eps_ok);
               ]))
     else begin
       Format.printf "%s, %d tasks on %d processors@."
         (Schedule.algorithm sched)
         (Dag.task_count (Schedule.dag sched))
         r.m;
       Format.printf "@[<v>%a@]@." Inject.pp report;
       if curve <> [] then begin
         Format.printf "degradation curve (%d runs per point):@." runs;
         Format.printf
           "  crashes  completed  completion(mean/min)  worst-slowdown@.";
         List.iter
           (fun (k, (mc : Monte_carlo.report)) ->
             let cm, cmin = completion mc in
             Format.printf "  %7d  %4d/%-4d  %8.3f/%-8.3f  %s@." k
               mc.Monte_carlo.completed mc.Monte_carlo.runs cm cmin
               (if Float.is_nan mc.Monte_carlo.worst_slowdown then "-"
                else Printf.sprintf "%.2fx" mc.Monte_carlo.worst_slowdown))
           curve
       end;
       if not within_eps_ok then
         Format.printf
           "WARNING: a scenario within epsilon crashes failed to complete@."
     end);
    if within_eps_ok then 0 else 1
  in
  let term =
    Term.(
      const run $ request_t $ import_t $ budget_t $ beyond_t $ runs_t $ json_t
      $ domains_t $ obs_t)
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Adversarial fault injection: worst-case crash plans and graceful \
          degradation")
    term

(* -- topology ------------------------------------------------------------ *)

let topology_cmd =
  let shape_t =
    Arg.(
      value & opt string "ring"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:"Interconnect: ring, star, mesh-RxC, torus-RxC, hypercube-D, clique.")
  in
  let routes_t =
    flag_arg "routes" ~doc:"Print the full routing table."
  in
  let parse_shape m shape =
    let unknown () =
      usage_error
        "unknown topology shape %S (accepted: ring, star, clique, mesh-RxC, \
         torus-RxC, hypercube-D)"
        shape
    in
    let grid prefix f =
      try Scanf.sscanf shape (prefix ^^ "-%dx%d") (fun r c -> f ~rows:r ~cols:c ())
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> unknown ()
    in
    match shape with
    | "ring" -> Topology.ring m
    | "star" -> Topology.star m
    | "clique" -> Topology.clique m
    | _ when String.length shape > 5 && String.sub shape 0 5 = "mesh-" ->
        grid "mesh" (fun ~rows ~cols () -> Topology.mesh2d ~rows ~cols ())
    | _ when String.length shape > 6 && String.sub shape 0 6 = "torus-" ->
        grid "torus" (fun ~rows ~cols () -> Topology.torus2d ~rows ~cols ())
    | _ when String.length shape > 10 && String.sub shape 0 10 = "hypercube-" -> (
        match
          int_of_string_opt (String.sub shape 10 (String.length shape - 10))
        with
        | Some d when d >= 0 -> Topology.hypercube d
        | Some _ | None -> unknown ())
    | _ -> unknown ()
  in
  let run m shape routes =
    let topo =
      try parse_shape m shape
      with Invalid_argument msg | Failure msg -> usage_error "%s" msg
    in
    let mm = Topology.proc_count topo in
    Format.printf "%s: %d processors, %d directed links, diameter %d hops@."
      shape mm (Topology.link_count topo) (Topology.diameter_hops topo);
    if routes then
      for src = 0 to mm - 1 do
        for dst = 0 to mm - 1 do
          if src <> dst then
            Format.printf "  %d -> %d: %s (delay %.2f)@." src dst
              (String.concat " -> "
                 (List.map string_of_int (Topology.route topo src dst)))
              (Topology.delay_between topo src dst)
        done
      done
  in
  let term = Term.(const run $ m_t $ shape_t $ routes_t) in
  Cmd.v
    (Cmd.info "topology" ~doc:"Inspect a sparse interconnect and its routes")
    term

(* -- campaign ------------------------------------------------------------ *)

let campaign_cmd =
  let figure_t =
    Arg.(
      value & opt int 1
      & info [ "figure"; "f" ] ~docv:"N" ~doc:"Paper figure to regenerate (1-6).")
  in
  let graphs_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "graphs" ] ~docv:"N" ~doc:"Random graphs per point (default 60).")
  in
  let csv_t =
    file_arg "csv" ~doc:"Also write the series as CSV."
  in
  let domains_t = domains_t ~doc:"Parallelize the campaign over N domains." in
  let gnuplot_t =
    file_arg "gnuplot"
      ~doc:
        "Also write a gnuplot script rendering the figure's three \
         panels from the CSV (requires --csv)."
  in
  let checkpoint_t =
    file_arg "checkpoint"
      ~doc:
        "Record every completed granularity point in FILE (written \
         atomically after each point); rerunning with the same figure \
         and seed resumes from it, reproducing the uninterrupted \
         report byte for byte."
  in
  let run figure graphs csv gnuplot checkpoint seed domains obs =
    with_obs obs @@ fun () ->
    let config = Config.figure figure in
    let config =
      match graphs with
      | Some g -> Config.with_graphs_per_point config g
      | None -> config
    in
    let result =
      try Campaign.run ~seed ?domains ?checkpoint config
      with Campaign.Checkpoint_error msg -> usage_error "%s" msg
    in
    Option.iter (fun path -> write_file path (Report.to_csv result)) csv;
    Option.iter
      (fun path ->
        match csv with
        | None -> prerr_endline "--gnuplot requires --csv; script not written"
        | Some data -> write_file path (Report.to_gnuplot result ~data))
      gnuplot;
    print_string (Report.render result);
    0
  in
  let term =
    Term.(
      const run $ figure_t $ graphs_t $ csv_t $ gnuplot_t $ checkpoint_t
      $ seed_t $ domains_t $ obs_t)
  in
  Cmd.v (Cmd.info "campaign" ~doc:"Regenerate one of the paper's figures") term

(* -- benchdiff ---------------------------------------------------------- *)

let benchdiff_cmd =
  let old_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Baseline bench JSON (ftsched/bench/v1).")
  in
  let new_t =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench JSON to compare.")
  in
  let threshold_t =
    Arg.(
      value & opt float 20.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Regression threshold in percent: a metric that got worse by at \
             least $(docv)%% fails the diff.")
  in
  let advisory_t =
    flag_arg "advisory"
      ~doc:
        "Report regressions but exit 0 anyway — for CI steps that should \
         warn, not gate."
  in
  let filter_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"SUBSTR"
          ~doc:
            "Compare only metrics whose key contains $(docv) (e.g. \
             $(b,batched) for the blocking batched-replay gate).  A filter \
             that matches no metric on both sides fails the diff.")
  in
  let read_doc path =
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Json.parse s with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
  in
  let run old_path new_path threshold advisory filter =
    match (read_doc old_path, read_doc new_path) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 2
    | Ok old_doc, Ok new_doc ->
        let r =
          Bench_compare.compare_docs ?filter ~threshold_pct:threshold old_doc
            new_doc
        in
        Text_table.print (Bench_compare.to_table r);
        print_endline (Bench_compare.summary r);
        if
          (Bench_compare.regressions r <> [] || Bench_compare.vacuous r)
          && not advisory
        then exit 1
  in
  let term =
    Term.(const run $ old_t $ new_t $ threshold_t $ advisory_t $ filter_t)
  in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:
         "Diff two bench JSON reports and fail on throughput/latency \
          regressions beyond a threshold")
    term

(* -- serve --------------------------------------------------------------- *)

let serve_cmd =
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix domain socket instead of stdin/stdout.")
  in
  let cache_t =
    file_arg "cache"
      ~doc:
        "Journal finished results to FILE so a restarted daemon serves \
         them from cache."
  in
  let resume_t =
    flag_arg "resume"
      ~doc:
        "Warm-restart: replay an existing cache journal (tolerates the \
         torn tail a kill -9 leaves)."
  in
  let queue_t =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue capacity; requests beyond it are shed with an \
             'overloaded' error.")
  in
  let max_frame_t =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Request frame size limit (default 1 MiB).")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "default-deadline" ] ~docv:"MS"
          ~doc:"Budget for requests that do not carry their own deadline_ms.")
  in
  let max_requests_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:
            "Drain and exit after admitting N frames (deterministic shutdown \
             for tests).")
  in
  let run socket cache resume queue max_frame deadline max_requests obs =
    with_obs obs @@ fun () ->
    let cache =
      match cache with
      | None ->
          if resume then
            usage_error "--resume needs --cache FILE to restart from";
          Serve_cache.in_memory ()
      | Some path -> (
          match Serve_cache.journaled ~resume path with
          | Error msg -> usage_error "%s" msg
          | Ok (c, rc) ->
              if resume then
                Obs.Log.info "serve: warm restart, %d results from %s%s"
                  rc.Serve_cache.rc_entries path
                  (if rc.Serve_cache.rc_skipped > 0 then
                     Printf.sprintf " (%d torn journal lines dropped)"
                       rc.Serve_cache.rc_skipped
                   else "");
              c)
    in
    let cfg =
      {
        Serve_server.queue_capacity = queue;
        max_frame;
        default_deadline_ms = deadline;
        max_requests;
      }
    in
    (match socket with
    | None -> Serve_server.run_stdio (Serve_server.create cfg ~cache)
    | Some path -> Serve_server.run_socket (Serve_server.create cfg ~cache) ~path);
    0
  in
  let term =
    Term.(
      const run $ socket_t $ cache_t $ resume_t $ queue_t $ max_frame_t
      $ deadline_t $ max_requests_t $ obs_t)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Crash-tolerant scheduling daemon: JSON-lines requests over \
          stdin/stdout or a Unix socket, with admission control, deadlines \
          and a warm-restart result cache")
    term

let client_cmd =
  let socket_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket to connect to.")
  in
  let op_t =
    Arg.(
      value & opt string "ping"
      & info [ "op" ] ~docv:"OP" ~doc:"Operation to request.")
  in
  let params_t =
    Arg.(
      value & opt string "{}"
      & info [ "params" ] ~docv:"JSON" ~doc:"Request parameters, one JSON object.")
  in
  let deadline_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS" ~doc:"Request budget in milliseconds.")
  in
  let retries_t =
    Arg.(
      value & opt int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Attempts on 'overloaded'/'shutting_down' replies and connection \
             errors (exponential backoff with seeded jitter).")
  in
  let count_t =
    Arg.(
      value & opt int 1
      & info [ "count" ] ~docv:"N"
          ~doc:"Send the request N times (fresh connection each).")
  in
  let run seed socket op params deadline retries count =
    let params =
      match Json.parse params with
      | Ok (Json.Obj _ as p) -> p
      | Ok _ -> usage_error "--params must be a JSON object"
      | Error e -> usage_error "--params: %s" e
    in
    let rng = Rng.create seed in
    let policy =
      { Serve_client.default_policy with Serve_client.max_attempts = retries }
    in
    let code = ref 0 in
    for i = 1 to count do
      let rq =
        {
          Serve_protocol.rq_id = Json.Int i;
          rq_op = op;
          rq_params = params;
          rq_deadline_ms = deadline;
        }
      in
      match Serve_client.request_with_retry ~policy ~rng ~path:socket rq with
      | Error msg ->
          Printf.eprintf "ftsched client: %s\n" msg;
          code := 1
      | Ok rs -> (
          match rs.Serve_protocol.rs_error with
          | Some (cls, msg) ->
              Printf.eprintf "ftsched client: error %s: %s\n"
                (Serve_protocol.class_name cls)
                msg;
              code := 1
          | None ->
              (* meta on stderr, result bytes alone on stdout: scripts can
                 diff cached vs fresh runs directly *)
              Printf.eprintf "ftsched client: ok op=%s cached=%b elapsed_ms=%s\n"
                (Option.value rs.Serve_protocol.rs_op ~default:"?")
                rs.Serve_protocol.rs_cached
                (match rs.Serve_protocol.rs_elapsed_ms with
                | Some e -> Printf.sprintf "%.3f" e
                | None -> "?");
              print_string
                (Json.to_string
                   (Option.value rs.Serve_protocol.rs_result ~default:Json.Null));
              print_newline ())
    done;
    if !code <> 0 then exit !code
  in
  let term =
    Term.(
      const run $ seed_t $ socket_t $ op_t $ params_t $ deadline_t $ retries_t
      $ count_t)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Test driver for the serve daemon: send one request over its Unix \
          socket, retrying with backoff when the daemon sheds load")
    term

let () =
  let info =
    Cmd.info "ftsched" ~version:"1.0.0"
      ~doc:"Contention-aware fault-tolerant scheduling (CAFT) toolbox"
  in
  exit (Cmd.eval (Cmd.group info
       [
         schedule_cmd; crash_cmd; check_cmd; analyze_cmd; inspect_cmd;
         montecarlo_cmd; stress_cmd; topology_cmd; campaign_cmd;
         benchdiff_cmd; serve_cmd; client_cmd;
       ]))
