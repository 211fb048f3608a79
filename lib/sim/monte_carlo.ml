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

let m_distinct =
  Obs_metrics.counter
    ~help:
      "Monte-Carlo scenarios replayed: each distinct from-start crash set \
       once, every timed scenario"
    "montecarlo.distinct"

let g_throughput =
  Obs_metrics.gauge ~help:"replay scenarios evaluated per second (last campaign)"
    "replay.scenarios_per_sec"

(* One replayed scenario: its from-start crash set ([[||]] for a timed
   one) and its outcome once the scan has consumed it, which every run
   that drew the set folds. *)
type replay = {
  set : int array;
  mutable consumed : bool;
  mutable lat : float;  (* frontier latency, nan if a task failed *)
  mutable cf : float;  (* completion fraction, beyond epsilon only *)
  mutable sf : float;  (* sink fraction, beyond epsilon only *)
  mutable fr : float;  (* frontier latency, beyond epsilon only *)
}

let unreplayed set =
  { set; consumed = false; lat = nan; cf = 0.; sf = 0.; fr = 0. }

module Int_tbl = Hashtbl.Make (Int)

(* The distinct sets drawn so far, keyed by bitset: one int when it fits
   one word, the word array otherwise. *)
type index = Word of replay Int_tbl.t | Words of (int array, replay) Hashtbl.t

let find_set t set =
  match t with
  | Word t -> Int_tbl.find t set.(0)
  | Words t -> Hashtbl.find t set

let add_set t r =
  match t with
  | Word t -> Int_tbl.add t r.set.(0) r
  | Words t -> Hashtbl.add t r.set r

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
  let m = Replay.proc_count c in
  let latencies = ref [] and completed = ref 0 in
  let csum = ref 0. and cmin = ref 1. in
  let ssum = ref 0. and fsum = ref 0. in
  let consume r (res : Replay.batch) j =
    r.lat <- res.Replay.br_latency.(j);
    if beyond then begin
      let d = Replay.batch_degradation c res j in
      r.cf <- Replay.completion_fraction d;
      r.sf <- Replay.sink_fraction d;
      r.fr <- d.Replay.d_frontier
    end;
    r.consumed <- true
  in
  (* fold the outcome of the next run, in run order *)
  let fold r =
    if not (Float.is_nan r.lat) then begin
      incr completed;
      latencies := r.lat :: !latencies
    end;
    if beyond then begin
      csum := !csum +. r.cf;
      if r.cf < !cmin then cmin := r.cf;
      ssum := !ssum +. r.sf;
      fsum := !fsum +. r.fr
    end
  in
  let t0 = Obs_clock.now () in
  (* Every scenario is drawn from the root RNG in run order and every
     outcome is folded in run order, whatever [domains] is, so the
     scenarios and every sum (the Kahan sums of [Stats.summarize]
     included) are those of the sequential loop. *)
  let scan fill consume items =
    let (_ : int) =
      Obs_prof.phase ~trace:false "montecarlo.scan" @@ fun () ->
      Replay.scan ~cancel ~degradation:beyond ~domains c ~fill ~consume items
    in
    ()
  in
  let replayed =
    match mode with
    | Timed _ ->
        (* timed instants never repeat: the scan fills row [j] with the
           [j]-th draw and folds each result as it comes *)
        let r = unreplayed [||] in
        scan
          (fun rows ~m j () ->
            Scenario.draw_row rng ~count:crashes ~mode rows ~m j)
          (fun () res j ->
            consume r res j;
            fold r;
            true)
          (Seq.init runs ignore);
        runs
    | From_start ->
        (* Only the first run to draw a crash set replays it.  The scan
           pulls those first runs lazily, drawing every run up to the
           next new set; once a replay is consumed, the runs up to the
           next unconsumed set are folded, so each run is folded in run
           order after every set it refers to. *)
        let row = Array.create_float m in
        let set = Array.make (Scenario.set_words ~m) 0 in
        let index =
          if Array.length set = 1 then Word (Int_tbl.create 64)
          else Words (Hashtbl.create 64)
        in
        let of_run = Array.make runs (unreplayed [||]) in
        let drawn = ref 0 and folded = ref 0 and distinct = ref 0 in
        let fold_ready () =
          while !folded < !drawn && of_run.(!folded).consumed do
            (* [eval_batch]'s per-chunk poll, for the runs no block
               replays *)
            if !folded land (Replay.batch_lanes - 1) = 0 then
              Cancel.check cancel;
            fold of_run.(!folded);
            incr folded
          done
        in
        let rec firsts () =
          if !drawn = runs then Seq.Nil
          else begin
            Scenario.draw_row rng ~count:crashes ~mode row ~m 0;
            Scenario.read_set row ~m 0 set;
            let j = !drawn in
            incr drawn;
            match find_set index set with
            | r ->
                of_run.(j) <- r;
                firsts ()
            | exception Not_found ->
                let r = unreplayed (Array.copy set) in
                add_set index r;
                of_run.(j) <- r;
                incr distinct;
                Seq.Cons (r, firsts)
          end
        in
        scan
          (fun rows ~m j r -> Scenario.write_set rows ~m j r.set)
          (fun r res j ->
            consume r res j;
            fold_ready ();
            true)
          firsts;
        fold_ready ();
        !distinct
  in
  Obs_metrics.incr ~by:replayed m_distinct;
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
