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
    ~crashes ~mode sched =
  if runs < 1 then invalid_arg "Monte_carlo.run: runs < 1";
  let rng = Rng.create seed in
  let l0 = Schedule.latency_zero_crash sched in
  Obs_metrics.incr ~by:runs m_scenarios;
  (* Degradation tracking only engages beyond the tolerance the schedule
     was built for: within epsilon the completion fraction is constantly
     1.0 (Proposition 5.2) and the plain latency path stays bit-identical
     to the historical reports. *)
  let beyond = crashes > Schedule.epsilon sched in
  let c = Replay.compile sched in
  let latencies = ref [] and completed = ref 0 in
  let csum = ref 0. and cmin = ref 1. in
  let ssum = ref 0. and fsum = ref 0. in
  let t0 = Obs_clock.now () in
  (* The scan fills row [j] with the [j]-th draw from the root RNG and
     consumes the results in run order, whatever [domains] is, so the
     scenarios and every sum (the Kahan sums of [Stats.summarize]
     included) are those of the sequential loop. *)
  let (_ : int) =
    Obs_prof.phase ~trace:false "montecarlo.scan" @@ fun () ->
    Replay.scan ~cancel ~degradation:beyond ~domains c
      ~fill:(fun rows ~m j () ->
        Scenario.draw_row rng ~count:crashes ~mode rows ~m j)
      ~consume:(fun () (res : Replay.batch) j ->
        let lat = res.Replay.br_latency.(j) in
        if not (Float.is_nan lat) then begin
          incr completed;
          latencies := lat :: !latencies
        end;
        if beyond then begin
          let d = Replay.batch_degradation c res j in
          let cf = Replay.completion_fraction d in
          csum := !csum +. cf;
          if cf < !cmin then cmin := cf;
          ssum := !ssum +. Replay.sink_fraction d;
          fsum := !fsum +. d.Replay.d_frontier
        end;
        true)
      (Seq.init runs ignore)
  in
  let dt = Obs_clock.now () -. t0 in
  if dt > 0. then Obs_metrics.set g_throughput (float_of_int runs /. dt);
  let latency =
    match !latencies with [] -> None | ls -> Some (Stats.summarize ls)
  in
  let n = float_of_int runs in
  {
    runs;
    completed = !completed;
    replays = runs;
    latency;
    worst_slowdown =
      (match latency with
      | Some s when l0 > 0. -> s.Stats.max /. l0
      | _ -> nan);
    failure_rate = float_of_int (runs - !completed) /. n;
    degradation =
      (if not beyond then None
       else
         Some
           {
             deg_completion_mean = !csum /. n;
             deg_completion_min = !cmin;
             deg_sink_mean = !ssum /. n;
             deg_frontier_mean = !fsum /. n;
           });
  }

let degradation_curve ?seed ?runs ?domains ?cancel ?max_crashes ~mode sched =
  let m = Platform.proc_count (Schedule.platform sched) in
  let eps = Schedule.epsilon sched in
  let hi =
    match max_crashes with Some k -> min k m | None -> min m (eps + 3)
  in
  List.init (hi + 1) (fun crashes ->
      (crashes, run ?seed ?runs ?domains ?cancel ~crashes ~mode sched))

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
