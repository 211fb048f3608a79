type mode = From_start | Timed of float

type degradation = {
  deg_completion_mean : float;
  deg_completion_min : float;
  deg_sink_mean : float;
  deg_frontier_mean : float;
}

type report = {
  runs : int;
  completed : int;
  replays : int;
  latency : Stats.summary option;
  worst_slowdown : float;
  failure_rate : float;
  degradation : degradation option;
}

let m_scenarios =
  Obs_metrics.counter ~help:"Monte-Carlo crash scenarios drawn"
    "montecarlo.scenarios"

let g_throughput =
  Obs_metrics.gauge ~help:"replay scenarios evaluated per second (last campaign)"
    "replay.scenarios_per_sec"

(* Scenarios per [Replay.eval_batch] block.  The block size never changes
   the results — each scenario has its own arena lane and aggregation
   runs in run order over flat arrays — only the work-stealing
   granularity. *)
let batch_block = 256

let run ?(seed = 20) ?(runs = 1000) ?(domains = 1) ?(cancel = Cancel.never)
    ?fabric ~crashes ~mode sched =
  if runs < 1 then invalid_arg "Monte_carlo.run: runs < 1";
  let rng = Rng.create seed in
  let m = Platform.proc_count (Schedule.platform sched) in
  let l0 = Schedule.latency_zero_crash sched in
  (* Pre-draw every scenario from the root RNG, in run order, before any
     evaluation: the scenario set is byte-identical to the sequential
     run whatever [domains] is.  A from-start crash is a timed crash at
     [neg_infinity], so both modes share one representation. *)
  let smode =
    match mode with
    | From_start -> Scenario.From_start
    | Timed horizon -> Scenario.Timed horizon
  in
  let scenarios =
    Obs_prof.phase ~cat:"sim" "montecarlo.draw" (fun () ->
        Obs_metrics.incr ~by:runs m_scenarios;
        Scenario.draw_block rng ~m ~count:crashes ~mode:smode ~runs)
  in
  (* Compiled engines owned by this call.  A [compiled] value owns its
     scratch arena and must not be shared, so a block takes an idle
     engine off the list for its whole evaluation (compiling a new one
     only when every engine is busy on another domain) and returns it
     after.  The list dies with the call: at most one engine per
     concurrently running worker, never one per domain for the process
     lifetime. *)
  let c0 = Replay.compile ?fabric sched in
  let idle = ref [ c0 ] and idle_lock = Mutex.create () in
  let with_engine f =
    let c =
      match
        Mutex.protect idle_lock (fun () ->
            match !idle with
            | c :: rest ->
                idle := rest;
                Some c
            | [] -> None)
      with
      | Some c -> c
      | None -> Replay.compile ?fabric sched
    in
    Fun.protect
      ~finally:(fun () -> Mutex.protect idle_lock (fun () -> idle := c :: !idle))
      (fun () -> f c)
  in
  (* Degradation tracking only engages beyond the tolerance the schedule
     was built for: within epsilon the completion fraction is constantly
     1.0 (Proposition 5.2) and the plain latency path stays bit-identical
     to the historical reports. *)
  let beyond = crashes > Schedule.epsilon sched in
  (* Per-scenario results land in flat arrays at the scenario's own run
     index, so workers touch disjoint slots and aggregation order is the
     run order however the items were stolen. *)
  let lat = Array.make runs nan in
  let deg_tasks = if beyond then Array.make runs 0 else [||] in
  let deg_sinks = if beyond then Array.make runs 0 else [||] in
  let deg_frontier = if beyond then Array.make runs 0. else [||] in
  let t0 = Obs_clock.now () in
  (* blocks of [batch_block] scenarios, one struct-of-arrays
     [Replay.eval_batch] call per block *)
  let nblocks = (runs + batch_block - 1) / batch_block in
  let eval_block b =
    (* profiled but untraced: one span per block would still drown the
       timeline the [point]/[replay] spans already structure *)
    Obs_prof.phase ~trace:false "montecarlo.eval" @@ fun () ->
    with_engine @@ fun c ->
    let start = b * batch_block in
    let len = min batch_block (runs - start) in
    let res =
      Replay.eval_batch ~cancel ~degradation:beyond c
        (Array.sub scenarios start len)
    in
    Array.blit res.Replay.br_latency 0 lat start len;
    if beyond then begin
      Array.blit res.Replay.br_tasks 0 deg_tasks start len;
      Array.blit res.Replay.br_sinks 0 deg_sinks start len;
      Array.blit res.Replay.br_frontier 0 deg_frontier start len
    end
  in
  ignore
    (Parallel.map ~domains eval_block (List.init nblocks Fun.id) : unit list);
  let dt = Obs_clock.now () -. t0 in
  if dt > 0. then Obs_metrics.set g_throughput (float_of_int runs /. dt);
  (* Aggregate in run order so the Kahan sums in [Stats.summarize] see
     the same list (hence the same rounding) as the sequential loop. *)
  Obs_prof.phase ~cat:"sim" "montecarlo.aggregate" @@ fun () ->
  let latencies = ref [] in
  let completed = ref 0 in
  Array.iter
    (fun lat ->
      if not (Float.is_nan lat) then begin
        incr completed;
        latencies := lat :: !latencies
      end)
    lat;
  let latency =
    match !latencies with [] -> None | ls -> Some (Stats.summarize ls)
  in
  let degradation =
    if not beyond then None
    else begin
      (* the compiled simulator carries the constant denominators;
         reconstructing the per-run record keeps the float operations
         identical to the historical per-record fold *)
      let task_count = Replay.task_count c0 in
      let sink_count = Replay.sink_count c0 in
      let n = float_of_int runs in
      let csum = ref 0. and cmin = ref 1. in
      let ssum = ref 0. and fsum = ref 0. in
      for i = 0 to runs - 1 do
        let d =
          {
            Replay.d_tasks = deg_tasks.(i);
            d_task_count = task_count;
            d_sinks = deg_sinks.(i);
            d_sink_count = sink_count;
            d_frontier = deg_frontier.(i);
          }
        in
        let cf = Replay.completion_fraction d in
        csum := !csum +. cf;
        if cf < !cmin then cmin := cf;
        ssum := !ssum +. Replay.sink_fraction d;
        fsum := !fsum +. d.Replay.d_frontier
      done;
      Some
        {
          deg_completion_mean = !csum /. n;
          deg_completion_min = !cmin;
          deg_sink_mean = !ssum /. n;
          deg_frontier_mean = !fsum /. n;
        }
    end
  in
  {
    runs;
    completed = !completed;
    replays = runs;
    latency;
    worst_slowdown =
      (match latency with
      | Some s when l0 > 0. -> s.Stats.max /. l0
      | _ -> nan);
    failure_rate = float_of_int (runs - !completed) /. float_of_int runs;
    degradation;
  }

let degradation_curve ?seed ?runs ?domains ?cancel ?fabric ?max_crashes ~mode
    sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let eps = Schedule.epsilon sched in
  let hi =
    match max_crashes with Some k -> min k m | None -> min m (eps + 3)
  in
  List.init (hi + 1) (fun crashes ->
      ( crashes,
        run ?seed ?runs ?domains ?cancel ?fabric ~crashes ~mode sched ))

let slowdown_cell x =
  if Float.is_nan x then "-" else Printf.sprintf "%.2fx" x

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%d/%d runs completed (failure rate %.2f%%, %d replays)@,%a%a@]"
    r.completed r.runs
    (100. *. r.failure_rate)
    r.replays
    (fun ppf -> function
      | None ->
          Format.fprintf ppf "no completed run (worst slowdown %s)"
            (slowdown_cell r.worst_slowdown)
      | Some s ->
          Format.fprintf ppf
            "latency: mean %.3f, median %.3f, min %.3f, max %.3f (worst \
             slowdown %s)"
            s.Stats.mean s.Stats.median s.Stats.min s.Stats.max
            (slowdown_cell r.worst_slowdown))
    r.latency
    (fun ppf -> function
      | None -> ()
      | Some d ->
          Format.fprintf ppf
            "@,degradation: completion mean %.3f min %.3f, sinks mean %.3f, \
             frontier mean %.3f"
            d.deg_completion_mean d.deg_completion_min d.deg_sink_mean
            d.deg_frontier_mean)
    r.degradation
