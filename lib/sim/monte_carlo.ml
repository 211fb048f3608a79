type mode = Scenario.mode = From_start | Timed of float

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

let run ?(seed = 20) ?(runs = 1000) ?(domains = 1) ?(cancel = Cancel.never)
    ?fabric ~crashes ~mode sched =
  if runs < 1 then invalid_arg "Monte_carlo.run: runs < 1";
  let rng = Rng.create seed in
  let m = Platform.proc_count (Schedule.platform sched) in
  let l0 = Schedule.latency_zero_crash sched in
  (* Pre-draw every scenario from the root RNG, in run order, before any
     evaluation: the crash rows are byte-identical to the sequential run
     whatever [domains] is. *)
  let rows =
    Obs_prof.phase ~cat:"sim" "montecarlo.draw" (fun () ->
        Obs_metrics.incr ~by:runs m_scenarios;
        Scenario.draw_block rng ~m ~count:crashes ~mode ~runs)
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
  let t0 = Obs_clock.now () in
  (* blocks of [Replay.batch_block] rows, one [Replay.eval_batch] call
     per block; [Parallel.map] returns the batches in block order, so
     aggregation runs in run order however the blocks were stolen *)
  let nblocks = (runs + Replay.batch_block - 1) / Replay.batch_block in
  let eval_block b =
    (* profiled but untraced: one span per block would still drown the
       timeline the [point]/[replay] spans already structure *)
    Obs_prof.phase ~trace:false "montecarlo.eval" @@ fun () ->
    with_engine @@ fun c ->
    let first = b * Replay.batch_block in
    Replay.eval_batch ~cancel ~degradation:beyond c rows ~first
      ~count:(min Replay.batch_block (runs - first))
  in
  let batches = Parallel.map ~domains eval_block (List.init nblocks Fun.id) in
  let dt = Obs_clock.now () -. t0 in
  if dt > 0. then Obs_metrics.set g_throughput (float_of_int runs /. dt);
  (* Aggregate in run order so the Kahan sums in [Stats.summarize] see
     the same list (hence the same rounding) as the sequential loop. *)
  Obs_prof.phase ~cat:"sim" "montecarlo.aggregate" @@ fun () ->
  let latencies = ref [] in
  let completed = ref 0 in
  List.iter
    (fun (res : Replay.batch) ->
      Array.iter
        (fun lat ->
          if not (Float.is_nan lat) then begin
            incr completed;
            latencies := lat :: !latencies
          end)
        res.Replay.br_latency)
    batches;
  let latency =
    match !latencies with [] -> None | ls -> Some (Stats.summarize ls)
  in
  let degradation =
    if not beyond then None
    else begin
      let n = float_of_int runs in
      let csum = ref 0. and cmin = ref 1. in
      let ssum = ref 0. and fsum = ref 0. in
      List.iter
        (fun (res : Replay.batch) ->
          for j = 0 to res.Replay.br_count - 1 do
            let d = Replay.batch_degradation c0 res j in
            let cf = Replay.completion_fraction d in
            csum := !csum +. cf;
            if cf < !cmin then cmin := cf;
            ssum := !ssum +. Replay.sink_fraction d;
            fsum := !fsum +. d.Replay.d_frontier
          done)
        batches;
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
