(* paper_campaign: [Campaign.run] on the paper's m = 20, epsilon = 5,
   3-crash platform of figure 3 (granularity range A) and figure 6 (range
   B).  Many ~100-task instances through all five schedulers of the
   paper, each fault-tolerant schedule replayed once: small n, small m,
   compile-dominated.

   A run's figure is an average over its random DAGs, so each figure is
   cut to the two ends of its granularity range with 16 graphs per point:
   32 distinct DAGs a run instead of the 10 that 5 graphs on all ten
   points would give, for about the same work.

   One domain: on the 2-core VM this was tuned on, a 2-domain campaign
   ran up to three times slower whenever the host took one core away,
   which no bound could absorb.

   The traced iteration cannot see inside [Campaign.run], so it runs the
   campaign's per-instance measurement itself through the same public
   calls, [Parallel.map] included, and must reproduce [Campaign.run]'s
   points bit for bit. *)

open Common

let domains = 1
let graphs = 16

let configs =
  List.map
    (fun (name, fig) ->
      let cfg = Config.figure fig in
      let g = cfg.granularities in
      ( name,
        {
          cfg with
          granularities = [ List.hd g; List.nth g (List.length g - 1) ];
          graphs_per_point = graphs;
        } ))
    [ ("fig3", 3); ("fig6", 6) ]

let digest (points : Campaign.point list) =
  let b = Buffer.create 4096 in
  let algo (a : Campaign.algo_metrics) =
    add_floats b
      [
        a.latency0; a.upper; a.latency_crash; a.overhead0; a.overhead_crash;
        a.messages; a.latency0_stddev;
      ]
  in
  List.iter
    (fun (p : Campaign.point) ->
      add_floats b [ p.granularity ];
      algo p.caft;
      algo p.ftsa;
      algo p.ftbar;
      add_floats b [ p.fault_free_caft; p.fault_free_ftbar; p.edges ])
    points;
  md5 (Buffer.contents b)

(* -- the campaign's instance draw and per-instance measurement ---------- *)

type instance = { costs1 : Costs.t; sched_seed : int; crashed : int list }

let draw (cfg : Config.t) seed =
  let rng = Rng.create seed in
  List.init cfg.graphs_per_point (fun _ ->
      let grng = Rng.split rng in
      let dag = Random_dag.generate_default grng in
      let params = Platform_gen.default ~m:cfg.m () in
      let costs1 = Platform_gen.instance grng ~granularity:1.0 params dag in
      let sched_seed = Rng.int grng 1_000_000 in
      let crashed = Scenario.uniform_procs grng ~m:cfg.m ~count:cfg.crashes in
      { costs1; sched_seed; crashed })

(* normalized (latency0, upper, latency_crash, overhead0, overhead_crash,
   messages) of one algorithm, and the fault-free references *)
let measure ~epsilon ~granularity inst =
  Span.within "experiments.instance" @@ fun () ->
  let costs =
    Span.within "workload.rescale" (fun () ->
        Granularity.rescale_to inst.costs1 granularity)
  in
  let norm = Campaign.normalization costs in
  let seed = inst.sched_seed in
  let ff_caft = Span.within "core.caft_ff.run" (fun () -> Caft.fault_free ~seed costs) in
  let ff_ftbar =
    Span.within "baselines.ftbar_ff.run" (fun () -> Ftbar.run ~seed ~epsilon:0 costs)
  in
  let lstar = Schedule.latency_zero_crash ff_caft in
  let overhead l = 100. *. (l -. lstar) /. lstar in
  let algo name schedule =
    let sched = Span.within name (fun () -> schedule ~seed ~epsilon costs) in
    let compiled = Span.within "sim.replay.compile" (fun () -> Replay.compile sched) in
    let out =
      Span.within "sim.replay.eval" (fun () ->
          Replay.eval_crashed compiled ~crashed:inst.crashed)
    in
    if not out.Replay.completed then failwith (name ^ ": schedule lost a task");
    let l0 = Schedule.latency_zero_crash sched in
    [|
      l0 /. norm; Schedule.latency_upper_bound sched /. norm;
      out.Replay.latency /. norm; overhead l0; overhead out.Replay.latency;
      float_of_int (Schedule.message_count sched);
    |]
  in
  let caft = algo "core.caft.run.small" (fun ~seed ~epsilon c -> Caft.run ~seed ~epsilon c) in
  let ftsa = algo "baselines.ftsa.run" (fun ~seed ~epsilon c -> Ftsa.run ~seed ~epsilon c) in
  let ftbar = algo "baselines.ftbar.run" (fun ~seed ~epsilon c -> Ftbar.run ~seed ~epsilon c) in
  ( [| caft; ftsa; ftbar |],
    Schedule.latency_zero_crash ff_caft /. norm,
    Schedule.latency_zero_crash ff_ftbar /. norm,
    float_of_int (Dag.edge_count (Costs.dag costs)) )

let summarize rows k : Campaign.algo_metrics =
  let col j = List.map (fun (a, _, _, _) -> a.(k).(j)) rows in
  {
    latency0 = Stats.mean (col 0);
    upper = Stats.mean (col 1);
    latency_crash = Stats.mean (col 2);
    overhead0 = Stats.mean (col 3);
    overhead_crash = Stats.mean (col 4);
    messages = Stats.mean (col 5);
    latency0_stddev = Stats.stddev (col 0);
  }

let points (cfg : Config.t) instances =
  List.map
    (fun granularity ->
      let rows =
        Span.within "util.parallel.map" (fun () ->
            Parallel.map ~domains
              (measure ~epsilon:cfg.epsilon ~granularity)
              instances)
      in
      let mean f = Stats.mean (List.map f rows) in
      ({
         granularity;
         caft = summarize rows 0;
         ftsa = summarize rows 1;
         ftbar = summarize rows 2;
         fault_free_caft = mean (fun (_, c, _, _) -> c);
         fault_free_ftbar = mean (fun (_, _, f, _) -> f);
         edges = mean (fun (_, _, _, e) -> e);
       }
        : Campaign.point))
    cfg.granularities

let sum_edges instances =
  List.fold_left (fun acc i -> acc + Dag.edge_count (Costs.dag i.costs1)) 0 instances

(* -- the workload -------------------------------------------------------- *)

let run args o =
  let root = Rng.create args.seed in
  let seeds = List.map (fun (name, _) -> (name, Rng.int root 1_000_000)) configs in
  let draw_all () =
    List.map (fun (name, cfg) -> (name, draw cfg (List.assoc name seeds))) configs
  in
  let setups = List.init 5 (fun _ -> time draw_all) in
  let drawn = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let walls = Hashtbl.create 2 in
  let done_instances = ref 0 and campaign_s = ref 0. in
  let plain_walls = ref [] and traced_walls = ref [] and n_traced = ref 0 in
  let busy = ref 0. and idle = ref 0. and spread = ref 0. and mean_busy = ref 0. in
  let worker_self = ref 0. and worker_wall = ref 0. in
  let monitor (ms : Parallel.map_stats) =
    let b = List.map (fun w -> w.Parallel.ws_busy_s) ms.ms_workers in
    busy := !busy +. sum b;
    idle := !idle +. sum (List.map (fun w -> w.Parallel.ws_idle_s) ms.ms_workers);
    let mb = sum b /. float_of_int (List.length b) in
    spread := !spread +. (List.fold_left Float.max 0. b -. mb);
    mean_busy := !mean_busy +. mb;
    List.iter
      (fun w ->
        if w.Parallel.ws_worker > 0 then begin
          worker_self := !worker_self +. w.Parallel.ws_idle_s;
          worker_wall := !worker_wall +. w.Parallel.ws_busy_s +. w.Parallel.ws_idle_s
        end)
      ms.ms_workers
  in
  (* CAFT (epsilon + 1 replicas) and fault-free CAFT (1) decide every
     input of every instance at every granularity *)
  let caft_inputs =
    List.fold_left
      (fun acc (name, (cfg : Config.t)) ->
        acc
        + (List.length cfg.granularities * sum_edges (List.assoc name drawn) * (cfg.epsilon + 2)))
      0 configs
  in
  repeat args (fun i ->
      let traced = traced args i in
      if traced then begin
        obs_on ~prof:false;
        Parallel.set_monitor (Some monitor);
        Span.start ()
      end;
      let results, wall =
        time (fun () ->
            Span.within Span.root (fun () ->
                List.map
                  (fun (name, cfg) ->
                    let seed = List.assoc name seeds in
                    (* the campaign reports each finished point: the gaps
                       between reports are the per-point walls *)
                    let last = ref (now ()) and point_walls = ref [] in
                    let progress _ =
                      let t = now () in
                      point_walls := (t -. !last) :: !point_walls;
                      last := t
                    in
                    let pts, dt =
                      time (fun () ->
                          try
                            if traced then Ok (points cfg (List.assoc name drawn))
                            else Ok (Campaign.run ~seed ~progress ~domains cfg).points
                          with e -> Error (Printexc.to_string e))
                    in
                    (name, cfg, pts, dt, !point_walls))
                  configs))
      in
      Span.stop ();
      Parallel.set_monitor None;
      obs_off ();
      if traced then begin
        incr n_traced;
        traced_walls := wall :: !traced_walls;
        add "core.caft.one_to_one" (counter "caft.one_to_one");
        add "core.caft.full_replication" (counter "caft.full_replication");
        add "sched.net.messages_remote" (counter "net.messages.remote")
      end
      else plain_walls := wall :: !plain_walls;
      List.iter
        (fun (name, (cfg : Config.t), pts, dt, point_walls) ->
          operation o (fun () ->
              match pts with
              | Error e -> [ name ^ ": " ^ e ]
              | Ok pts ->
                  if not traced then begin
                    done_instances :=
                      !done_instances + (cfg.graphs_per_point * List.length pts);
                    campaign_s := !campaign_s +. dt;
                    Hashtbl.replace walls name
                      (point_walls @ Option.value ~default:[] (Hashtbl.find_opt walls name))
                  end;
                  check_digest args o ~key:name (digest pts)))
        results;
      if traced then begin
        let inputs = tallied "core.caft.one_to_one" +. tallied "core.caft.full_replication" in
        let want = float_of_int (!n_traced * caft_inputs) in
        if inputs <> want then
          operation o (fun () ->
              [ Printf.sprintf "caft inputs %.0f, expected %.0f" inputs want ])
      end;
      wall);
  e2e o "setup_s" setup_s;
  e2e o "throughput_per_s" (float_of_int !done_instances /. !campaign_s);
  let wall name = Option.value ~default:[] (Hashtbl.find_opt walls name) in
  e2e o "op_a_ms" (1000. *. median (wall "fig3"));
  e2e o "op_b_ms" (1000. *. median (wall "fig6"));
  if args.trace then begin
    let n = float_of_int !n_traced in
    let spans = Span.spans () in
    let per name = Span.total name spans /. n in
    layer o "core.caft.run_s.small" (per "core.caft.run.small");
    layer o "core.caft_ff.run_s" (per "core.caft_ff.run");
    layer o "baselines.ftsa.run_s" (per "baselines.ftsa.run");
    layer o "baselines.ftbar.run_s" (per "baselines.ftbar.run");
    layer o "baselines.ftbar_ff.run_s" (per "baselines.ftbar_ff.run");
    layer o "sim.replay.compile_s" (per "sim.replay.compile");
    layer o "sim.replay.eval_s" (per "sim.replay.eval");
    layer o "sim.replay.compile_eval_ratio"
      (per "sim.replay.compile" /. per "sim.replay.eval");
    layer o "util.parallel.busy_s" (!busy /. n);
    layer o "util.parallel.idle_s" (!idle /. n);
    layer o "util.parallel.imbalance" (!spread /. !mean_busy);
    List.iter
      (fun k -> layer o k (tallied k /. n))
      [ "core.caft.one_to_one"; "core.caft.full_replication"; "sched.net.messages_remote" ];
    layer o "workload.instance_s" setup_s;
    layer o "trace.coverage"
      (Span.coverage ~extra_self:!worker_self ~extra_wall:!worker_wall spans);
    layer o "trace.overhead_frac"
      (overhead ~traced_walls:!traced_walls ~plain_walls:!plain_walls)
  end
