(* Benchmark harness for what the per-scheduler benchmark (perfbench/)
   does not measure: the paper's structural and ablation tables (message
   bounds, Proposition 5.1, windowed and one-to-one ablations,
   topologies, crash sweeps, the contention spectrum), plus two
   microbench sections: replay (rebuild vs compiled vs batched, domain
   scaling) and sched (CAFT tasks/sec and pruning funnel on large
   workflow families).  CI gates the same-machine ratios
   of replay and sched.

   The paper's figures are regenerated by
   [ftsched campaign --figure N --seed 2008].

   Usage (via dune):
     dune exec bench/main.exe                      # every table and section
     dune exec bench/main.exe -- --table outforest
     dune exec bench/main.exe -- --replay --sched --quick

   Each section returns its rows as (key, JSON) pairs; the run merges
   them into BENCH_schedulers.json (see --json), replacing the sections
   it produced and keeping the others. *)

(* -- the random-graph instance draw the tables share -------------------- *)

(* [n] instances drawn from [seed]: each gets its own split generator, a
   paper random DAG, costs built by [costs], the normalization unit and a
   scheduler seed.  [f] also gets the split generator, for the tables
   that keep drawing from it. *)
let instances ~n ~seed ~costs f =
  let rng = Rng.create seed in
  for _ = 1 to n do
    let grng = Rng.split rng in
    let dag = Random_dag.generate_default grng in
    let costs = costs grng dag in
    let norm = Campaign.normalization costs in
    let seed = Rng.int grng 1_000_000 in
    f ~grng ~costs ~norm ~seed
  done

(* The paper's platform: [m] processors, costs at granularity [g]. *)
let paper ~m ~g grng dag =
  Platform_gen.instance grng ~granularity:g (Platform_gen.default ~m ()) dag

(* -- Table: Proposition 5.1 — CAFT sends at most e(eps+1) messages on
   fork / out-forest graphs -------------------------------------------- *)

let outforest_table seed =
  print_endline "=== Table P5.1: message bound e(eps+1) on out-forests ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "graph"; "e"; "eps"; "m"; "CAFT msgs"; "e(eps+1)"; "bound holds" ]
  in
  let rng = Rng.create seed in
  let cases =
    [
      ("fork-15", Families.fork 15);
      ("fork-40", Families.fork 40);
      ("out-tree-2-4", Families.out_tree ~arity:2 ~depth:4 ());
      ("out-tree-3-3", Families.out_tree ~arity:3 ~depth:3 ());
      ("chain-25", Families.chain 25);
    ]
  in
  List.iter
    (fun (name, dag) ->
      List.iter
        (fun (m, epsilon) ->
          let params = Platform_gen.default ~m () in
          let costs =
            Platform_gen.instance rng ~granularity:1.0 params dag
          in
          let sched = Caft.run ~epsilon costs in
          let msgs = Schedule.message_count sched in
          let bound = Dag.edge_count dag * (epsilon + 1) in
          Text_table.add_row t
            [
              name;
              string_of_int (Dag.edge_count dag);
              string_of_int epsilon;
              string_of_int m;
              string_of_int msgs;
              string_of_int bound;
              (if msgs <= bound then "yes" else "NO");
            ])
        [ (10, 1); (10, 3); (20, 5) ])
    cases;
  Text_table.print t;
  print_newline ()

(* -- Table: message counts vs the e(eps+1)^2 blow-up on random graphs - *)

let messages_table graphs seed =
  print_endline
    "=== Table M: replication messages on random graphs (mean) ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "m"; "eps"; "CAFT"; "FTSA"; "FTBAR"; "e(eps+1)"; "e(eps+1)^2" ]
  in
  List.iter
    (fun (m, epsilon) ->
      let acc = Array.make 5 0. in
      let n = Option.value graphs ~default:20 in
      instances ~n ~seed ~costs:(paper ~m ~g:1.0)
        (fun ~grng:_ ~costs ~norm:_ ~seed ->
          let e = float_of_int (Dag.edge_count (Costs.dag costs)) in
          let eps1 = float_of_int (epsilon + 1) in
          let add i sched =
            acc.(i) <- acc.(i) +. float_of_int (Schedule.message_count sched)
          in
          add 0 (Caft.run ~seed ~epsilon costs);
          add 1 (Ftsa.run ~seed ~epsilon costs);
          add 2 (Ftbar.run ~seed ~epsilon costs);
          acc.(3) <- acc.(3) +. (e *. eps1);
          acc.(4) <- acc.(4) +. (e *. eps1 *. eps1));
      let mean i = acc.(i) /. float_of_int n in
      Text_table.add_float_row t (Printf.sprintf "%d" m)
        [ float_of_int epsilon; mean 0; mean 1; mean 2; mean 3; mean 4 ])
    [ (10, 1); (10, 3); (20, 5) ];
  Text_table.print t;
  print_newline ()

(* -- Table: batched CAFT (Section 7 further work) ---------------------- *)

let batch_table graphs seed =
  print_endline
    "=== Table B: windowed task selection (Section 7 'further work') ===";
  let windows = [ 1; 2; 5; 10; 20 ] in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      ("eps"
      :: List.concat_map
           (fun w -> [ Printf.sprintf "w=%d lat" w; Printf.sprintf "w=%d msg" w ])
           windows)
  in
  List.iter
    (fun epsilon ->
      let n = Option.value graphs ~default:20 in
      let lat = Array.make (List.length windows) 0. in
      let msg = Array.make (List.length windows) 0. in
      instances ~n ~seed ~costs:(paper ~m:10 ~g:0.5)
        (fun ~grng:_ ~costs ~norm ~seed ->
          List.iteri
            (fun i window ->
              let sched = Caft_batch.run ~seed ~window ~epsilon costs in
              lat.(i) <- lat.(i) +. (Schedule.latency_zero_crash sched /. norm);
              msg.(i) <- msg.(i) +. float_of_int (Schedule.message_count sched))
            windows);
      Text_table.add_row t
        (string_of_int epsilon
        :: List.concat
             (List.mapi
                (fun i _ ->
                  [
                    Text_table.float_cell (lat.(i) /. float_of_int n);
                    Text_table.float_cell (msg.(i) /. float_of_int n);
                  ])
                windows)))
    [ 1; 3 ];
  Text_table.print t;
  print_endline "(w=1 is exactly CAFT; normalized latency, fine grain g=0.5)";
  print_newline ()

(* -- Table: sparse interconnects (Section 7 extension) ----------------- *)

let topology_table graphs seed =
  print_endline
    "=== Table T: CAFT on sparse interconnects (Section 7 extension) ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "topology"; "m"; "links"; "diam"; "latency"; "messages"; "resists" ]
  in
  let topologies =
    [
      ("clique", Topology.clique 8);
      ("hypercube", Topology.hypercube 3);
      ("torus-2x4", Topology.torus2d ~rows:2 ~cols:4 ());
      ("mesh-2x4", Topology.mesh2d ~rows:2 ~cols:4 ());
      ("ring", Topology.ring 8);
      ("star", Topology.star 8);
    ]
  in
  List.iter
    (fun (name, topo) ->
      let n = Option.value graphs ~default:15 in
      let lat = ref 0. and msg = ref 0. and resists = ref true in
      let platform = Topology.platform topo in
      let m = Platform.proc_count platform in
      (* execution costs drawn as usual, then rescaled to g = 1 *)
      let costs grng dag =
        let matrix =
          Array.init (Dag.task_count dag) (fun _ ->
              let base = Rng.float_in grng 50. 150. in
              Array.init m (fun _ -> base *. Rng.float_in grng 0.5 1.5))
        in
        Granularity.rescale_to (Costs.of_matrix dag platform matrix) 1.0
      in
      instances ~n ~seed ~costs (fun ~grng:_ ~costs ~norm ~seed ->
          let epsilon = 1 in
          let sched = Caft.run ~seed ~epsilon costs in
          lat := !lat +. (Schedule.latency_zero_crash sched /. norm);
          msg := !msg +. float_of_int (Schedule.message_count sched);
          (* single-crash tolerance, exhaustive, on the sparse routes *)
          for p = 0 to m - 1 do
            let out = Replay.crash_from_start sched ~crashed:[ p ] in
            if not out.Replay.completed then resists := false
          done);
      Text_table.add_row t
        [
          name;
          string_of_int (Topology.proc_count topo);
          string_of_int (Topology.link_count topo);
          string_of_int (Topology.diameter_hops topo);
          Text_table.float_cell (!lat /. float_of_int n);
          Text_table.float_cell (!msg /. float_of_int n);
          (if !resists then "yes" else "NO");
        ])
    topologies;
  Text_table.print t;
  print_endline
    "(same workloads; end-to-end delays grow with the diameter and routes \
     share physical links)";
  print_newline ()

(* -- Table: isolating the one-to-one mechanism (ablation) -------------- *)

let mechanism_table graphs seed =
  print_endline
    "=== Table O: the one-to-one mapping's contribution (ablation) ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [
        "eps";
        "CAFT lat";
        "CAFT msg";
        "CAFT-full lat";
        "CAFT-full msg";
        "FTSA lat";
        "FTSA msg";
      ]
  in
  List.iter
    (fun epsilon ->
      let n = Option.value graphs ~default:20 in
      let acc = Array.make 6 0. in
      instances ~n ~seed ~costs:(paper ~m:10 ~g:0.5)
        (fun ~grng:_ ~costs ~norm ~seed ->
          let add i sched =
            acc.(i) <- acc.(i) +. (Schedule.latency_zero_crash sched /. norm);
            acc.(i + 1) <- acc.(i + 1) +. float_of_int (Schedule.message_count sched)
          in
          add 0 (Caft.run ~seed ~epsilon costs);
          add 2 (Caft.run ~one_to_one:false ~seed ~epsilon costs);
          add 4 (Ftsa.run ~seed ~epsilon costs));
      Text_table.add_row t
        (string_of_int epsilon
        :: List.map
             (fun i -> Text_table.float_cell (acc.(i) /. float_of_int n))
             [ 0; 1; 2; 3; 4; 5 ]))
    [ 1; 3 ];
  Text_table.print t;
  print_endline
    "(CAFT-full = CAFT with one-to-one disabled: every input fully \
     replicated; fine grain g=0.5)";
  print_newline ()

(* -- Table: latency vs effective crash count (Section 6 discussion) ---- *)

let crash_sweep_table graphs seed =
  print_endline
    "=== Table X: real latency vs number of crashes (eps=3, m=10, g=1) ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "crashes"; "CAFT"; "FTSA"; "FTBAR" ]
  in
  let n = Option.value graphs ~default:20 in
  let epsilon = 3 in
  let results = Array.make_matrix 4 3 0. in
  instances ~n ~seed ~costs:(paper ~m:10 ~g:1.0)
    (fun ~grng ~costs ~norm ~seed ->
      let schedules =
        [|
          Caft.run ~seed ~epsilon costs;
          Ftsa.run ~seed ~epsilon costs;
          Ftbar.run ~seed ~epsilon costs;
        |]
      in
      for crashes = 0 to 3 do
        let crashed = Scenario.uniform_procs grng ~m:10 ~count:crashes in
        Array.iteri
          (fun i sched ->
            let out = Replay.crash_from_start sched ~crashed in
            results.(crashes).(i) <-
              results.(crashes).(i) +. (out.Replay.latency /. norm))
          schedules
      done);
  for crashes = 0 to 3 do
    Text_table.add_row t
      (string_of_int crashes
      :: List.map
           (fun i -> Text_table.float_cell (results.(crashes).(i) /. float_of_int n))
           [ 0; 1; 2 ])
  done;
  Text_table.print t;
  print_endline
    "(the paper: the latency increase with the crash count is 'already \
     absorbed by the replication')";
  print_newline ()

(* -- Table: the contention spectrum (macro .. multiport-k .. one-port) - *)

let models_table graphs seed =
  print_endline
    "=== Table C: the contention spectrum (endpoint port capacity) ===";
  let models =
    List.map
      (fun model -> (Request.model_name model, model))
      Netstate.[ Macro_dataflow; Multiport 4; Multiport 2; One_port ]
  in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      ("algo" :: "eps" :: List.map fst models)
  in
  List.iter
    (fun (name, algo) ->
      List.iter
        (fun epsilon ->
          let n = Option.value graphs ~default:15 in
          let acc = Array.make (List.length models) 0. in
          instances ~n ~seed ~costs:(paper ~m:10 ~g:0.5)
            (fun ~grng:_ ~costs ~norm ~seed ->
              List.iteri
                (fun i (_, model) ->
                  acc.(i) <-
                    acc.(i)
                    +. Schedule.latency_zero_crash
                         (Request.schedule
                            { Request.default with algo; model; seed; epsilon }
                            costs)
                       /. norm)
                models);
          Text_table.add_row t
            (name :: string_of_int epsilon
            :: List.mapi
                 (fun i _ -> Text_table.float_cell (acc.(i) /. float_of_int n))
                 models))
        [ 1; 3 ])
    [ ("CAFT", Request.Caft); ("FTSA", Request.Ftsa) ];
  Text_table.print t;
  print_endline
    "(normalized latency at fine grain g=0.5: contention grows as endpoint \
     capacity shrinks,\n and the replication-heavy FTSA suffers most at one \
     port - the paper's core motivation)";
  print_newline ()

let tables =
  [
    ("messages", messages_table);
    ("outforest", fun _ seed -> outforest_table seed);
    ("batch", batch_table);
    ("topology", topology_table);
    ("mechanism", mechanism_table);
    ("crashes", crash_sweep_table);
    ("models", models_table);
  ]

(* -- bechamel: per-call estimates of the microbench sections ------------ *)

(* Run a bechamel test tree and return [(name, ns_per_run)] rows. *)
let run_bechamel ~limit ~quota tests =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit ~quota () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let merged = Analyze.merge ols Toolkit.Instance.[ monotonic_clock ] [ results ] in
  let rows = ref [] in
  Hashtbl.iter
    (fun _clock tbl ->
      Hashtbl.iter
        (fun name v ->
          let ns =
            match Bechamel.Analyze.OLS.estimates v with
            | Some [ e ] -> e
            | _ -> nan
          in
          rows := (name, ns) :: !rows)
        tbl)
    merged;
  List.sort compare !rows

(* The estimate of test [group/kind/m=MMM], nan when it is missing. *)
let estimate rows group kind m =
  Option.value ~default:nan
    (List.assoc_opt (Printf.sprintf "%s/%s/m=%03d" group kind m) rows)

let float_or_null x = if Float.is_nan x then Json.Null else Json.Float x

let write_json path doc =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string ~indent:2 doc);
      output_char oc '\n')

(* -- replay microbench: rebuild-per-scenario vs compiled eval ----------- *)

(* One crash scenario on a paper-sized schedule.  The [rebuild] variant is
   the pre-optimization path (the whole event graph — node numbering,
   dependency edges, port/link chains, route evaluation — is rebuilt and
   traversed with a heap for the scenario); the [compiled] variant reuses
   a [Replay.compile]d simulator, runs the crash-time kernel on its
   scratch arena and builds the outcome record, which is what one
   [Replay.eval] costs; the [batched] variant runs the same kernel over
   an [eval_batch] block, one arena lane per scenario.  The [compile] row
   prices building that simulator, which a campaign pays once per
   schedule it replays. *)
let replay_case m =
  let rng = Rng.create (2000 + m) in
  let dag = Random_dag.generate_default rng in
  let params = Platform_gen.default ~m () in
  let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
  let sched = Caft.run ~epsilon:2 costs in
  let crash_time =
    Array.init m (fun p -> if p < 2 then neg_infinity else infinity)
  in
  let compiled = Replay.compile sched in
  (* one engine, one block: the batched row reuses the same compiled
     simulator across the whole bechamel run, so it prices only the
     struct-of-arrays inner loop (no per-call compile, no per-scenario
     dispatch) *)
  let rows = Array.make (Replay.batch_block * m) infinity in
  for j = 0 to Replay.batch_block - 1 do
    Scenario.write_from_start rows ~m j [ 0; 1 ]
  done;
  let rebuild () = Oracle_replay.run sched ~crash_time in
  let compiled_eval () = Replay.eval compiled ~crash_time in
  let batched_eval () =
    Replay.eval_batch compiled rows ~first:0 ~count:Replay.batch_block
  in
  let compile () = Replay.compile sched in
  (sched, compile, rebuild, compiled_eval, batched_eval)

let replay_ms = [ 10; 25; 50 ]

(* Monte-Carlo domain scaling of [sched]: one row per domain count, each
   under the phase profiler.  Returns the [replay_domains] rows and the
   full ftsched/profile/v1 report of each row.  The campaign is timed:
   a from-start one replays each distinct crash set once, and m = 50
   with 2 crashes has only 1,225 of them. *)
let replay_domains ~quick ~m sched =
  (* enough runs that the one compile per domain amortizes *)
  let runs = if quick then 2000 else 10_000 in
  let blocks = (runs + Replay.batch_block - 1) / Replay.batch_block in
  print_endline
    (Printf.sprintf
       "=== Monte-Carlo scaling: %d timed scenarios in %d blocks, m=%d \
        (%d core%s available) ==="
       runs blocks m
       (Domain.recommended_domain_count ())
       (if Domain.recommended_domain_count () = 1 then "" else "s"));
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "domains"; "wall"; "scenarios/s"; "scaling" ]
  in
  let wall1 = ref nan in
  let attr =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [
        "domains"; "busy s"; "steal-idle s"; "spawn/other s"; "minor words";
        "gc min/maj";
      ]
  in
  (* Each row runs under the phase profiler: per-domain eval wall and GC
     plus worker busy/steal-idle go into the bench JSON, so the scaling
     verdict ships with the evidence for it. *)
  Obs.Prof.set_enabled true;
  let rows =
    List.map
      (fun domains ->
        Obs.Prof.reset ();
        let t0 = Obs_clock.now () in
        let report =
          Monte_carlo.run ~seed:3 ~runs ~domains ~crashes:2
            ~mode:(Monte_carlo.Timed (Schedule.makespan sched))
            sched
        in
        ignore (report : Monte_carlo.report);
        let wall = Obs_clock.now () -. t0 in
        let prof = Obs.Prof.report () in
        if domains = 1 then wall1 := wall;
        let per_sec = float_of_int runs /. wall in
        let evals =
          List.filter
            (fun p -> p.Obs.Prof.ph_name = "replay.eval_batch")
            prof.Obs.Prof.r_phases
        in
        let workers = prof.Obs.Prof.r_workers in
        let eval_rows =
          List.map
            (fun p ->
              Json.Obj
                [
                  ("domain", Json.Int p.Obs.Prof.ph_domain);
                  ("calls", Json.Int p.Obs.Prof.ph_count);
                  ("busy_s", Json.Float p.Obs.Prof.ph_wall_s);
                  ("minor_words", Json.Float p.Obs.Prof.ph_minor_words);
                  ("major_words", Json.Float p.Obs.Prof.ph_major_words);
                  ("minor_collections", Json.Int p.Obs.Prof.ph_minor_collections);
                  ("major_collections", Json.Int p.Obs.Prof.ph_major_collections);
                ])
            evals
        in
        let worker_rows =
          List.map
            (fun w ->
              Json.Obj
                [
                  ("worker", Json.Int w.Obs.Prof.wk_worker);
                  ("items", Json.Int w.Obs.Prof.wk_items);
                  ("busy_s", Json.Float w.Obs.Prof.wk_busy_s);
                  ("steal_idle_s", Json.Float w.Obs.Prof.wk_idle_s);
                  ("steal_attempts", Json.Int w.Obs.Prof.wk_steal_attempts);
                ])
            workers
        in
        let sum f l = List.fold_left (fun a x -> a +. f x) 0. l in
        let isum f l = List.fold_left (fun a x -> a + f x) 0 l in
        let busy = sum (fun w -> w.Obs.Prof.wk_busy_s) workers in
        let idle = sum (fun w -> w.Obs.Prof.wk_idle_s) workers in
        (* spawn/teardown and scheduling slack: wall not spent evaluating
           or spinning in the steal loop, summed over all domains *)
        let other = (float_of_int domains *. wall) -. busy -. idle in
        Text_table.add_row attr
          [
            string_of_int domains;
            Printf.sprintf "%.3f" busy;
            Printf.sprintf "%.3f" idle;
            Printf.sprintf "%.3f" (Float.max 0. other);
            Printf.sprintf "%.0f" (sum (fun p -> p.Obs.Prof.ph_minor_words) evals);
            Printf.sprintf "%d/%d"
              (isum (fun p -> p.Obs.Prof.ph_minor_collections) evals)
              (isum (fun p -> p.Obs.Prof.ph_major_collections) evals);
          ];
        Text_table.add_row t
          [
            string_of_int domains;
            Printf.sprintf "%.3f s" wall;
            Printf.sprintf "%.0f" per_sec;
            Printf.sprintf "%.2fx" (!wall1 /. wall);
          ];
        ( Json.Obj
            [
              ("domains", Json.Int domains);
              ("runs", Json.Int runs);
              ("blocks", Json.Int blocks);
              ("wall_seconds", Json.Float wall);
              ("scenarios_per_sec", float_or_null per_sec);
              ( "profile",
                Json.Obj
                  [
                    ("eval", Json.List eval_rows);
                    ("workers", Json.List worker_rows);
                  ] );
            ],
          Json.Obj
            [ ("domains", Json.Int domains); ("profile", Obs.Prof.to_json prof) ]
        ))
      [ 1; 2; 4 ]
  in
  Obs.Prof.set_enabled false;
  Text_table.print t;
  print_endline
    "(same scenario rows and byte-identical report for every domain \
     count;\n the run's one Replay.scan evaluates a wave of one eval_batch \
     block per domain\n in each Parallel.map; scaling above 1.0x needs more \
     cores than domains — on a\n single-core host the extra domains are \
     pure spawn/GC overhead)";
  print_newline ();
  print_endline "=== where the wall time went (profiler attribution) ===";
  Text_table.print attr;
  print_endline
    "(busy = summed per-worker eval time, steal-idle = time in the steal \
     loop without\n an item, spawn/other = domains x wall minus both: domain \
     startup, GC pauses and\n core oversubscription)";
  print_newline ();
  List.split rows

(* The replay sections.  [profile_json], when not empty, receives the full
   profiler report of each domain-scaling row. *)
let replay_bench ~quick ~profile_json =
  let open Bechamel in
  print_endline
    "=== Replay microbench: rebuild-per-scenario vs compiled eval ===";
  let test name f = Test.make ~name (Staged.stage f) in
  let scheds = List.map (fun m -> (m, replay_case m)) replay_ms in
  let tests f = Test.make_grouped ~name:"replay" (List.concat_map f scheds) in
  let limit, quota =
    if quick then (300, Time.second 0.05) else (2000, Time.second 0.5)
  in
  (* The gated batched-vs-rebuild ratio divides two rows, and one rebuild
     at m = 50 takes about 60 ms, which the quick quota would time once
     or twice: both rows get the full quota in either mode. *)
  let rows =
    run_bechamel ~limit ~quota:(Time.second 0.5)
      (tests (fun (m, (_, _, rebuild, _, batched_eval)) ->
           [
             test (Printf.sprintf "rebuild/m=%03d" m) rebuild;
             (* one estimate = one whole [batch_block]-scenario block *)
             test (Printf.sprintf "batched/m=%03d" m) batched_eval;
           ]))
    @ run_bechamel ~limit ~quota
        (tests (fun (m, (_, compile, _, compiled_eval, _)) ->
             [
               test (Printf.sprintf "compile/m=%03d" m) compile;
               test (Printf.sprintf "compiled/m=%03d" m) compiled_eval;
             ]))
  in
  let find = estimate rows "replay" in
  let batched m = find "batched" m /. float_of_int Replay.batch_block in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [
        "m";
        "compile";
        "rebuild/scenario";
        "compiled/scenario";
        "batched/scenario";
        "batched vs rebuild";
      ]
  in
  List.iter
    (fun m ->
      Text_table.add_row t
        [
          string_of_int m;
          Printf.sprintf "%.2f us" (find "compile" m /. 1e3);
          Printf.sprintf "%.2f us" (find "rebuild" m /. 1e3);
          Printf.sprintf "%.2f us" (find "compiled" m /. 1e3);
          Printf.sprintf "%.2f us" (batched m /. 1e3);
          Printf.sprintf "%.0fx" (find "rebuild" m /. batched m);
        ])
    replay_ms;
  Text_table.print t;
  print_endline
    (Printf.sprintf
       "(compile builds the crash-independent simulator once per \
        schedule; the other columns price\n\
       \ replaying one crash scenario: the rebuild path reconstructs the \
        event graph\n\
       \ per scenario, the compiled path runs the crash-time kernel and \
        builds the outcome, and\n\
       \ the batched path runs the same kernel over a %d-scenario \
        [eval_batch] block, %d scenarios per walk)"
       Replay.batch_block Replay.batch_lanes);
  print_newline ();
  (* domain scaling of a whole Monte-Carlo campaign on the largest case *)
  let m = List.nth replay_ms 2 in
  let sched, _, _, _, _ = List.assoc m scheds in
  let domain_rows, profiles = replay_domains ~quick ~m sched in
  if profile_json <> "" then
    write_json profile_json
      (Json.Obj
         [
           ("schema", Json.String "ftsched/profile-rows/v1");
           ("rows", Json.List profiles);
         ]);
  [
    ( "replay",
      Json.List
        (List.map
           (fun m ->
             Json.Obj
               [
                 ("m", Json.Int m);
                 ("compile_ns", float_or_null (find "compile" m));
                 ("rebuild_ns_per_scenario", float_or_null (find "rebuild" m));
                 ("compiled_ns_per_scenario", float_or_null (find "compiled" m));
                 ("speedup", float_or_null (find "rebuild" m /. find "compiled" m));
               ])
           replay_ms) );
    ( "replay_batch",
      Json.List
        (List.map
           (fun m ->
             Json.Obj
               [
                 ("m", Json.Int m);
                 ("block", Json.Int Replay.batch_block);
                 ("batched_ns_per_scenario", float_or_null (batched m));
                 ( "batched_vs_rebuild",
                   float_or_null (find "rebuild" m /. batched m) );
               ])
           replay_ms) );
    ("replay_domains", Json.List domain_rows);
  ]

(* -- scheduler scaling: CAFT tasks/sec on large workflow families ------- *)

(* Deterministic instances for the scaling grid.  The family parameters
   are the same formulas the CLI's --family staged/pipelines use, so a
   bench row can be reproduced interactively. *)
let sched_dag family n =
  match family with
  | "staged" ->
      let stages = 8 in
      let width = max 1 (((n - 1) / stages) - 1) in
      Families.staged_fanout ~stages ~width ()
  | "pipelines" ->
      let depth = 16 in
      let lanes = max 1 ((n - 2) / depth) in
      Families.parallel_chains ~lanes ~depth ()
  | other -> failwith ("sched_dag: unknown family " ^ other)

let sched_families = [ "staged"; "pipelines" ]

(* CAFT's candidate funnel: what was probed, what was pruned without a
   probe, and which stage pruned it (the stages sum to the total). *)
let funnel_metrics =
  [
    "caft.candidates_evaluated";
    "caft.candidates_pruned";
    "caft.pruned.stage0";
    "caft.pruned.weak";
    "caft.pruned.plan";
  ]

let sched_bench ~quick =
  print_endline
    "=== Scheduler scaling: CAFT (eps=1) tasks/sec on workflow families ===";
  let ns = if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  let ms = if quick then [ 25 ] else [ 25; 100 ] in
  let epsilon = 1 in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "family"; "n"; "m"; "tasks"; "wall"; "tasks/s"; "minor Mw" ]
  in
  let tps = Hashtbl.create 16 in
  Obs.Prof.set_enabled true;
  Obs.Metrics.set_enabled true;
  let rows =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun m ->
            List.map
              (fun n ->
                let rng = Rng.create (4000 + m + (n / 1000)) in
                let dag = sched_dag family n in
                let params = Platform_gen.default ~m () in
                let costs =
                  Platform_gen.instance rng ~granularity:1.0 params dag
                in
                let tasks = Dag.task_count dag in
                (* best-of-reps on the small sizes: both cells the
                   scaling-efficiency gate divides are sub-second, and a
                   single noisy run would swing the ratio past the CI
                   threshold; best-of-3 is stable against interference *)
                let reps =
                  if n <= 1_000 then 7 else if n <= 10_000 then 3 else 1
                in
                let best_wall = ref infinity in
                let minor = ref 0. in
                let prof = ref None in
                for _ = 1 to reps do
                  Gc.full_major ();
                  Obs.Prof.reset ();
                  Obs.Metrics.reset ();
                  let s0 = Gc.quick_stat () in
                  let t0 = Obs_clock.now () in
                  let sched = Caft.run ~seed:7 ~epsilon costs in
                  let wall = Obs_clock.now () -. t0 in
                  let s1 = Gc.quick_stat () in
                  ignore (sched : Schedule.t);
                  if wall < !best_wall then begin
                    best_wall := wall;
                    minor := s1.Gc.minor_words -. s0.Gc.minor_words;
                    prof := Some (Obs.Prof.report ())
                  end
                done;
                let wall = !best_wall in
                let per_sec = float_of_int tasks /. wall in
                Hashtbl.replace tps (family, m, n) per_sec;
                (* the counts are deterministic: the last repetition's
                   are every repetition's *)
                let count name =
                  match Obs.Metrics.find name with
                  | Some (Obs.Metrics.Counter c) -> c
                  | _ -> 0
                in
                let phases =
                  match !prof with
                  | None -> []
                  | Some p ->
                      List.filter_map
                        (fun ph ->
                          let name = ph.Obs.Prof.ph_name in
                          if String.starts_with ~prefix:"caft." name then
                            Some
                              (Json.Obj
                                 [
                                   ("phase", Json.String name);
                                   ("calls", Json.Int ph.Obs.Prof.ph_count);
                                   ("wall_s", Json.Float ph.Obs.Prof.ph_wall_s);
                                   ("self_s", Json.Float ph.Obs.Prof.ph_self_s);
                                   ( "minor_words",
                                     Json.Float ph.Obs.Prof.ph_minor_words );
                                 ])
                          else None)
                        p.Obs.Prof.r_phases
                in
                Text_table.add_row t
                  [
                    family;
                    string_of_int n;
                    string_of_int m;
                    string_of_int tasks;
                    Printf.sprintf "%.3f s" wall;
                    Printf.sprintf "%.0f" per_sec;
                    Printf.sprintf "%.1f" (!minor /. 1e6);
                  ];
                Json.Obj
                  [
                    ("family", Json.String family);
                    ("n", Json.Int n);
                    ("tasks", Json.Int tasks);
                    ("edges", Json.Int (Dag.edge_count dag));
                    ("m", Json.Int m);
                    ("epsilon", Json.Int epsilon);
                    ("wall_seconds", Json.Float wall);
                    ("tasks_per_sec", Json.Float per_sec);
                    ("minor_words", Json.Float !minor);
                    ( "funnel",
                      Json.Obj
                        (List.map
                           (fun name -> (name, Json.Int (count name)))
                           funnel_metrics) );
                    ("phases", Json.List phases);
                  ])
              ns)
          ms)
      sched_families
  in
  Obs.Metrics.set_enabled false;
  Obs.Prof.set_enabled false;
  Text_table.print t;
  (* Same-run scaling efficiency tps(10^4)/tps(10^3): a machine-class
     robust ratio (both runs on the same host seconds apart), so it can
     gate in CI where absolute tasks/sec cannot.  A constant-per-task
     scheduler holds it near 1.0; reintroducing an O(n)-ish term in the
     per-task cost drops it hard. *)
  let efficiency =
    List.concat_map
      (fun family ->
        List.filter_map
          (fun m ->
            match
              ( Hashtbl.find_opt tps (family, m, 1_000),
                Hashtbl.find_opt tps (family, m, 10_000) )
            with
            | Some t3, Some t4 when t3 > 0. ->
                let eff = t4 /. t3 in
                print_endline
                  (Printf.sprintf
                     "scaling efficiency %s m=%d: tps(1e4)/tps(1e3) = %.2f"
                     family m eff);
                Some
                  (Json.Obj
                     [
                       ("family", Json.String family);
                       ("m", Json.Int m);
                       ("efficiency_1e4_over_1e3", Json.Float eff);
                     ])
            | _ -> None)
          ms)
      sched_families
  in
  print_endline
    "(best of several CAFT runs per cell; minor = words allocated during \
     it; the efficiency ratio\n is the same-machine CI gate)";
  print_newline ();
  [ ("sched_scale", Json.List rows); ("sched_efficiency", Json.List efficiency) ]

(* -- machine-readable summary ------------------------------------------ *)

let schema = "ftsched/bench/v1"

(* The commit the bench ran on, or null outside a git checkout. *)
let git_commit () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> Json.Null
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some c when c <> "" -> Json.String c
      | _ -> Json.Null)

(* The sections of the bench document at [path], [] when there is none. *)
let previous_sections path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | s -> (
      match Json.parse s with
      | Ok (Json.Obj kvs as doc)
        when Option.bind (Json.member "schema" doc) Json.to_str = Some schema
        ->
          List.filter (fun (k, _) -> k <> "schema" && k <> "meta") kvs
      | _ -> [])

(* Merge this run's [sections] into the document at [path]: a section
   this run produced replaces its previous value, every other section of
   the previous document is kept, so a partial run (e.g. --sched only)
   does not wipe the rest. *)
let write_bench_json path ~meta sections =
  let prev = previous_sections path in
  let kept =
    List.map
      (fun (k, v) -> (k, Option.value (List.assoc_opt k sections) ~default:v))
      prev
  in
  let added = List.filter (fun (k, _) -> not (List.mem_assoc k prev)) sections in
  write_json path
    (Json.Obj ((("schema", Json.String schema) :: ("meta", meta) :: kept) @ added))

(* -- command line ------------------------------------------------------ *)

let () =
  let graphs = ref None in
  let seed = ref 2008 in
  let selected = ref [] in
  let sched = ref false in
  let replay = ref false in
  let quick = ref false in
  let json = ref "BENCH_schedulers.json" in
  let profile_json = ref "" in
  let speclist =
    [
      ( "--graphs",
        Arg.Int (fun n -> graphs := Some n),
        "N  random graphs per table point (default: each table's own)" );
      ("--seed", Arg.Set_int seed, "N  table seed (default 2008)");
      ( "--table",
        Arg.String (fun s -> selected := !selected @ [ s ]),
        "NAME  regenerate a table: " ^ String.concat " | " (List.map fst tables)
      );
      ( "--sched",
        Arg.Set sched,
        "  run the scheduler scaling bench (CAFT tasks/sec and pruning \
         funnel on the staged/pipelines workflow families)" );
      ( "--replay",
        Arg.Set replay,
        "  run the replay microbench (rebuild-per-scenario vs compiled \
         eval, domain scaling)" );
      ( "--quick",
        Arg.Set quick,
        "  shrink the microbench quotas (CI smoke mode)" );
      ( "--json",
        Arg.Set_string json,
        "FILE  machine-readable summary (default BENCH_schedulers.json; \
         empty to skip)" );
      ( "--profile-json",
        Arg.Set_string profile_json,
        "FILE  with --replay, write the full per-row profiler reports of \
         the domain-scaling bench (CI artifact)" );
    ]
  in
  Arg.parse speclist
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench/main.exe: regenerate the paper's tables and the microbenches";
  let all = !selected = [] && not (!sched || !replay) in
  (match List.filter (fun name -> not (List.mem_assoc name tables)) !selected with
  | [] -> ()
  | unknown ->
      Printf.eprintf "bench: unknown table %s (valid: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " (List.map fst tables));
      exit 2);
  List.iter
    (fun name -> (List.assoc name tables) !graphs !seed)
    (if all then List.map fst tables else !selected);
  let quick = !quick in
  let sections =
    List.concat_map
      (fun (on, section) -> if all || on then section () else [])
      [
        (!replay, fun () -> replay_bench ~quick ~profile_json:!profile_json);
        (!sched, fun () -> sched_bench ~quick);
      ]
  in
  (* [meta] describes this run, so it names the sections the run
     produced; a tables-only run produces none and writes nothing. *)
  if !json <> "" && sections <> [] then
    write_bench_json !json sections
      ~meta:
        (Json.Obj
           [
             ("seed", Json.Int !seed);
             ( "graphs_per_point",
               Option.fold ~none:Json.Null ~some:(fun n -> Json.Int n) !graphs );
             ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
             ("generated_at", Json.Float (Obs_clock.now ()));
             ("commit", git_commit ());
             ( "sections",
               Json.List (List.map (fun (k, _) -> Json.String k) sections) );
           ])
