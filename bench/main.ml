(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6), plus the structural tables (message bounds,
   Proposition 5.1) and bechamel micro-benchmarks of the schedulers
   themselves (Theorem 5.1's complexity in practice).

   Usage (via dune):
     dune exec bench/main.exe                      # everything, paper sizes
     dune exec bench/main.exe -- --figure 1 --graphs 10
     dune exec bench/main.exe -- --table outforest
     dune exec bench/main.exe -- --bechamel

   Besides the pretty-printed tables, every run emits a machine-readable
   summary (campaign wall-clock per figure, bechamel estimates, run
   metadata) to BENCH_schedulers.json; see --json. *)

(* accumulators for the machine-readable report *)
let figure_timings : (int * float * int) list ref = ref []
let bechamel_estimates : (string * float) list ref = ref []
let placement_estimates : (string * float) list ref = ref []
let replay_estimates : (string * float) list ref = ref []

(* (domains, runs, eval_batch blocks, pool-spawn s, wall s, scenarios/s,
   profile sub-object) *)
let replay_domain_rows :
    (int * int * int * float * float * float * Json.t) list ref =
  ref []

(* full ftsched/profile/v1 report per domain-scaling row, for --profile-json *)
let replay_profile_reports : (int * Json.t) list ref = ref []
let inject_estimates : (string * float) list ref = ref []

(* (m, budget, evals, wall seconds) of one adversary search *)
let adversary_row : (int * int * int * float) option ref = ref None

let run_figures figures graphs seed domains =
  List.iter
    (fun n ->
      let config = Config.figure n in
      let config =
        match graphs with
        | Some g -> Config.with_graphs_per_point config g
        | None -> config
      in
      let t0 = Obs_clock.now () in
      let result = Campaign.run ~seed ?domains config in
      let wall = Obs_clock.now () -. t0 in
      figure_timings :=
        !figure_timings @ [ (n, wall, List.length result.Campaign.points) ];
      print_string (Report.render result);
      print_newline ())
    figures

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
      let rng = Rng.create seed in
      let acc = Array.make 5 0. in
      let n = Option.value graphs ~default:20 in
      for _ = 1 to n do
        let grng = Rng.split rng in
        let dag = Random_dag.generate_default grng in
        let params = Platform_gen.default ~m () in
        let costs = Platform_gen.instance grng ~granularity:1.0 params dag in
        let seed = Rng.int grng 1_000_000 in
        let e = float_of_int (Dag.edge_count dag) in
        let eps1 = float_of_int (epsilon + 1) in
        acc.(0) <-
          acc.(0)
          +. float_of_int (Schedule.message_count (Caft.run ~seed ~epsilon costs));
        acc.(1) <-
          acc.(1)
          +. float_of_int (Schedule.message_count (Ftsa.run ~seed ~epsilon costs));
        acc.(2) <-
          acc.(2)
          +. float_of_int
               (Schedule.message_count (Ftbar.run ~seed ~epsilon costs));
        acc.(3) <- acc.(3) +. (e *. eps1);
        acc.(4) <- acc.(4) +. (e *. eps1 *. eps1)
      done;
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
      let rng = Rng.create seed in
      for _ = 1 to n do
        let grng = Rng.split rng in
        let dag = Random_dag.generate_default grng in
        let params = Platform_gen.default ~m:10 () in
        let costs = Platform_gen.instance grng ~granularity:0.5 params dag in
        let norm = Campaign.normalization costs in
        let seed = Rng.int grng 1_000_000 in
        List.iteri
          (fun i window ->
            let sched = Caft_batch.run ~seed ~window ~epsilon costs in
            lat.(i) <- lat.(i) +. (Schedule.latency_zero_crash sched /. norm);
            msg.(i) <- msg.(i) +. float_of_int (Schedule.message_count sched))
          windows
      done;
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

(* -- Table: insertion-based execution booking (ablation) --------------- *)

let insertion_table graphs seed =
  print_endline "=== Table I: append vs insertion execution booking ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "algo"; "eps"; "append"; "insertion"; "gain %" ]
  in
  List.iter
    (fun (name, runner) ->
      List.iter
        (fun epsilon ->
          let n = Option.value graphs ~default:20 in
          let app = ref 0. and ins = ref 0. in
          let rng = Rng.create seed in
          for _ = 1 to n do
            let grng = Rng.split rng in
            let dag = Random_dag.generate_default grng in
            let params = Platform_gen.default ~m:10 () in
            let costs = Platform_gen.instance grng ~granularity:1.0 params dag in
            let norm = Campaign.normalization costs in
            let seed = Rng.int grng 1_000_000 in
            app :=
              !app
              +. Schedule.latency_zero_crash (runner ~insertion:false ~seed ~epsilon costs)
                 /. norm;
            ins :=
              !ins
              +. Schedule.latency_zero_crash (runner ~insertion:true ~seed ~epsilon costs)
                 /. norm
          done;
          Text_table.add_row t
            [
              name;
              string_of_int epsilon;
              Text_table.float_cell (!app /. float_of_int n);
              Text_table.float_cell (!ins /. float_of_int n);
              Text_table.float_cell (100. *. (!app -. !ins) /. !app);
            ])
        [ 1; 3 ])
    [
      ("CAFT", fun ~insertion ~seed ~epsilon costs -> Caft.run ~insertion ~seed ~epsilon costs);
      ("FTSA", fun ~insertion ~seed ~epsilon costs -> Ftsa.run ~insertion ~seed ~epsilon costs);
    ];
  Text_table.print t;
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
      let rng = Rng.create seed in
      for _ = 1 to n do
        let grng = Rng.split rng in
        let dag = Random_dag.generate_default grng in
        let platform = Topology.platform topo in
        let fabric = Topology.fabric topo in
        (* execution costs drawn as usual, then rescaled to g = 1 *)
        let m = Platform.proc_count platform in
        let matrix =
          Array.init (Dag.task_count dag) (fun _ ->
              let base = Rng.float_in grng 50. 150. in
              Array.init m (fun _ -> base *. Rng.float_in grng 0.5 1.5))
        in
        let costs =
          Granularity.rescale_to (Costs.of_matrix dag platform matrix) 1.0
        in
        let norm = Campaign.normalization costs in
        let seed = Rng.int grng 1_000_000 in
        let epsilon = 1 in
        let sched = Caft.run ~fabric ~seed ~epsilon costs in
        lat := !lat +. (Schedule.latency_zero_crash sched /. norm);
        msg := !msg +. float_of_int (Schedule.message_count sched);
        (* single-crash tolerance, exhaustive, on the sparse fabric *)
        for p = 0 to m - 1 do
          let out = Replay.crash_from_start ~fabric sched ~crashed:[ p ] in
          if not out.Replay.completed then resists := false
        done
      done;
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
      let rng = Rng.create seed in
      for _ = 1 to n do
        let grng = Rng.split rng in
        let dag = Random_dag.generate_default grng in
        let params = Platform_gen.default ~m:10 () in
        let costs = Platform_gen.instance grng ~granularity:0.5 params dag in
        let norm = Campaign.normalization costs in
        let seed = Rng.int grng 1_000_000 in
        let add i sched =
          acc.(i) <- acc.(i) +. (Schedule.latency_zero_crash sched /. norm);
          acc.(i + 1) <- acc.(i + 1) +. float_of_int (Schedule.message_count sched)
        in
        add 0 (Caft.run ~seed ~epsilon costs);
        add 2 (Caft.run ~one_to_one:false ~seed ~epsilon costs);
        add 4 (Ftsa.run ~seed ~epsilon costs)
      done;
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
  let rng = Rng.create seed in
  for _ = 1 to n do
    let grng = Rng.split rng in
    let dag = Random_dag.generate_default grng in
    let params = Platform_gen.default ~m:10 () in
    let costs = Platform_gen.instance grng ~granularity:1.0 params dag in
    let norm = Campaign.normalization costs in
    let seed = Rng.int grng 1_000_000 in
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
    done
  done;
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

(* -- Table: link-failure masking (extension) ---------------------------- *)

let links_table graphs seed =
  print_endline
    "=== Table L: single link failures masked by replication (extension) ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "eps"; "CAFT %"; "FTSA %"; "FTBAR %"; "HEFT %" ]
  in
  let m = 8 in
  List.iter
    (fun epsilon ->
      let n = Option.value graphs ~default:10 in
      let masked = Array.make 4 0 and total = ref 0 in
      let rng = Rng.create seed in
      for _ = 1 to n do
        let grng = Rng.split rng in
        let dag = Random_dag.generate_default grng in
        let params = Platform_gen.default ~m () in
        let costs = Platform_gen.instance grng ~granularity:1.0 params dag in
        let seed = Rng.int grng 1_000_000 in
        let schedules =
          [|
            Caft.run ~seed ~epsilon costs;
            Ftsa.run ~seed ~epsilon costs;
            Ftbar.run ~seed ~epsilon costs;
            Heft.run ~seed costs;
          |]
        in
        for src = 0 to m - 1 do
          for dst = 0 to m - 1 do
            if src <> dst then begin
              incr total;
              Array.iteri
                (fun i sched ->
                  if
                    (Replay.crash_links sched ~links:[ (src, dst) ])
                      .Replay.completed
                  then masked.(i) <- masked.(i) + 1)
                schedules
            end
          done
        done
      done;
      Text_table.add_row t
        (string_of_int epsilon
        :: List.map
             (fun i ->
               Text_table.float_cell
                 (100. *. float_of_int masked.(i) /. float_of_int !total))
             [ 0; 1; 2; 3 ]))
    [ 1; 3 ];
  Text_table.print t;
  print_endline
    "(fraction of single directed-link failures after which the application \
     still completes.\n Replication masks them all — for CAFT this follows \
     from support disjointness,\n since sibling one-to-one chains use \
     processor-disjoint routes — while the\n unreplicated HEFT schedule dies \
     on every link it uses)";
  print_newline ()

(* -- Table: the contention spectrum (macro .. multiport-k .. one-port) - *)

let models_table graphs seed =
  print_endline
    "=== Table C: the contention spectrum (endpoint port capacity) ===";
  let models =
    [
      ("macro", Netstate.Macro_dataflow);
      ("multiport-4", Netstate.Multiport 4);
      ("multiport-2", Netstate.Multiport 2);
      ("one-port", Netstate.One_port);
    ]
  in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      ("algo" :: "eps" :: List.map fst models)
  in
  List.iter
    (fun (name, runner) ->
      List.iter
        (fun epsilon ->
          let n = Option.value graphs ~default:15 in
          let acc = Array.make (List.length models) 0. in
          let rng = Rng.create seed in
          for _ = 1 to n do
            let grng = Rng.split rng in
            let dag = Random_dag.generate_default grng in
            let params = Platform_gen.default ~m:10 () in
            let costs = Platform_gen.instance grng ~granularity:0.5 params dag in
            let norm = Campaign.normalization costs in
            let seed = Rng.int grng 1_000_000 in
            List.iteri
              (fun i (_, model) ->
                acc.(i) <-
                  acc.(i)
                  +. Schedule.latency_zero_crash (runner ~model ~seed ~epsilon costs)
                     /. norm)
              models
          done;
          Text_table.add_row t
            (name :: string_of_int epsilon
            :: List.mapi
                 (fun i _ -> Text_table.float_cell (acc.(i) /. float_of_int n))
                 models))
        [ 1; 3 ])
    [
      ("CAFT", fun ~model ~seed ~epsilon costs -> Caft.run ~model ~seed ~epsilon costs);
      ("FTSA", fun ~model ~seed ~epsilon costs -> Ftsa.run ~model ~seed ~epsilon costs);
    ];
  Text_table.print t;
  print_endline
    "(normalized latency at fine grain g=0.5: contention grows as endpoint \
     capacity shrinks,\n and the replication-heavy FTSA suffers most at one \
     port - the paper's core motivation)";
  print_newline ()

(* -- Table: passive (primary/backup) vs active replication -------------- *)

let passive_table graphs seed =
  print_endline
    "=== Table P: passive (primary/backup) vs active replication (eps=1) ===";
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "metric"; "PB (passive)"; "CAFT macro"; "CAFT one-port" ]
  in
  let n = Option.value graphs ~default:20 in
  let acc = Array.make 9 0. in
  let rng = Rng.create seed in
  let m = 10 in
  for _ = 1 to n do
    let grng = Rng.split rng in
    let dag = Random_dag.generate_default grng in
    let params = Platform_gen.default ~m () in
    let costs = Platform_gen.instance grng ~granularity:1.0 params dag in
    let norm = Campaign.normalization costs in
    let seed = Rng.int grng 1_000_000 in
    let pb = Primary_backup.run ~seed costs in
    let caft_macro =
      Caft.run ~model:Netstate.Macro_dataflow ~seed ~epsilon:1 costs
    in
    let caft_oneport = Caft.run ~seed ~epsilon:1 costs in
    (* fault-free latencies *)
    acc.(0) <- acc.(0) +. (Primary_backup.fault_free_latency pb /. norm);
    acc.(1) <- acc.(1) +. (Schedule.latency_zero_crash caft_macro /. norm);
    acc.(2) <- acc.(2) +. (Schedule.latency_zero_crash caft_oneport /. norm);
    (* mean latency under each single crash *)
    let cm_pb = ref 0. and cm_m = ref 0. and cm_o = ref 0. in
    for p = 0 to m - 1 do
      (match Primary_backup.latency_with_crash pb ~crashed:p with
      | Some l -> cm_pb := !cm_pb +. (l /. norm)
      | None -> failwith "PB unrecoverable");
      let lm =
        (Replay.crash_from_start caft_macro ~crashed:[ p ]).Replay.latency
      in
      let lo =
        (Replay.crash_from_start caft_oneport ~crashed:[ p ]).Replay.latency
      in
      cm_m := !cm_m +. (lm /. norm);
      cm_o := !cm_o +. (lo /. norm)
    done;
    acc.(3) <- acc.(3) +. (!cm_pb /. float_of_int m);
    acc.(4) <- acc.(4) +. (!cm_m /. float_of_int m);
    acc.(5) <- acc.(5) +. (!cm_o /. float_of_int m);
    (* compute commitment: PB reserves, active executes *)
    acc.(6) <- acc.(6) +. (Primary_backup.reserved_time pb /. norm);
    acc.(7) <-
      acc.(7) +. ((Metrics.analyze caft_macro).Metrics.total_exec /. norm);
    acc.(8) <-
      acc.(8) +. ((Metrics.analyze caft_oneport).Metrics.total_exec /. norm)
  done;
  let mean i = Text_table.float_cell (acc.(i) /. float_of_int n) in
  Text_table.add_row t [ "fault-free latency"; mean 0; mean 1; mean 2 ];
  Text_table.add_row t [ "mean 1-crash latency"; mean 3; mean 4; mean 5 ];
  Text_table.add_row t [ "reserved/executed time"; mean 6; mean 7; mean 8 ];
  Text_table.print t;
  print_endline
    "(passive replication - Section 3(i) of the paper - costs nothing when \
     nothing fails but\n pays a recovery delay and assumes a single, \
     detected failure; active replication absorbs\n crashes silently.  PB \
     reservations are released on success; active executes everything.)";
  print_newline ()

(* -- bechamel micro-benchmarks: scheduler running time ---------------- *)

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

let bechamel_benches () =
  let open Bechamel in
  let instance_for m =
    let rng = Rng.create 99 in
    let dag = Random_dag.generate_default rng in
    let params = Platform_gen.default ~m () in
    Platform_gen.instance rng ~granularity:1.0 params dag
  in
  let costs10 = instance_for 10 in
  let costs20 = instance_for 20 in
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"schedulers"
      [
        test "caft/m=10/eps=1" (fun () -> Caft.run ~epsilon:1 costs10);
        test "caft/m=10/eps=3" (fun () -> Caft.run ~epsilon:3 costs10);
        test "caft/m=20/eps=5" (fun () -> Caft.run ~epsilon:5 costs20);
        test "ftsa/m=10/eps=1" (fun () -> Ftsa.run ~epsilon:1 costs10);
        test "ftsa/m=10/eps=3" (fun () -> Ftsa.run ~epsilon:3 costs10);
        test "ftsa/m=20/eps=5" (fun () -> Ftsa.run ~epsilon:5 costs20);
        test "ftbar/m=10/eps=1" (fun () -> Ftbar.run ~epsilon:1 costs10);
        test "ftbar/m=10/eps=3" (fun () -> Ftbar.run ~epsilon:3 costs10);
        test "ftbar/m=20/eps=5" (fun () -> Ftbar.run ~epsilon:5 costs20);
        test "heft/m=10" (fun () -> Heft.run costs10);
        test "replay/m=10/eps=3"
          (let sched = Caft.run ~epsilon:3 costs10 in
           fun () -> Replay.crash_from_start sched ~crashed:[ 0; 1; 2 ]);
      ]
  in
  print_endline "=== Bechamel: scheduler running time (Theorem 5.1) ===";
  let rows = run_bechamel ~limit:1000 ~quota:(Time.second 0.5) tests in
  let t =
    Text_table.create ~aligns:[ Text_table.Left ] [ "bench"; "time/run" ]
  in
  List.iter
    (fun (name, ns) ->
      bechamel_estimates := !bechamel_estimates @ [ (name, ns) ];
      Text_table.add_row t [ name; Printf.sprintf "%.3f ms" (ns /. 1e6) ])
    rows;
  Text_table.print t;
  print_newline ()

(* -- placement microbench: trial booking, snapshot vs probe ------------ *)

(* One trial booking of a 3-predecessor replica on an m-processor one-port
   clique with realistic port/link occupancy.  The [snapshot] variant is
   the reference path (full O(m^2) state copy around a committed
   booking); the [probe] variant is what every scheduler does per
   candidate: [Netstate.probe] on sources loaded once.  Both leave the
   state untouched, so the measured operation is exactly the
   per-candidate cost of [Caft_engine.best_placement] / the FTSA and
   FTBAR evaluation passes. *)
let placement_case m =
  let platform = Platform.uniform ~m ~delay:1. in
  let net = Netstate.create platform in
  let rng = Rng.create (1000 + m) in
  let sources =
    Array.init m (fun p ->
        let b =
          Netstate.book_exec_only net ~proc:p ~exec:(Rng.float_in rng 5. 15.)
        in
        {
          Netstate.s_task = p;
          s_replica = 0;
          s_proc = p;
          s_finish = b.Netstate.b_finish;
          s_volume = Rng.float_in rng 50. 150.;
        })
  in
  (* commit some messages so ports and links carry real reservations *)
  for i = 0 to (m / 2) - 1 do
    let dst = (i + (m / 2)) mod m in
    ignore
      (Netstate.book_replica net ~proc:dst ~exec:10.
         ~inputs:[ (i, [ sources.(i) ]) ])
  done;
  let inputs =
    List.init 3 (fun i ->
        let s1 = sources.(i * 2 mod m) in
        let s2 = sources.(((i * 2) + 1) mod m) in
        ( s1.Netstate.s_task,
          [ s1; { s2 with Netstate.s_task = s1.Netstate.s_task; s_replica = 1 } ]
        ))
  in
  let proc = m - 1 in
  let snapshot_trial () =
    let snap = Netstate.snapshot net in
    let b = Netstate.book_replica net ~proc ~exec:25. ~inputs in
    Netstate.restore net snap;
    b
  in
  let src = Netstate.create_sources () in
  Netstate.load_inputs src inputs;
  let probe_trial () =
    Netstate.probe net src ~colocate_exclusive:true ~proc ~exec:25.
  in
  (snapshot_trial, probe_trial)

let placement_ms = [ 10; 25; 50; 100 ]

let placement_bench ?(quick = false) () =
  let open Bechamel in
  print_endline
    "=== Placement microbench: trial booking, snapshot vs probe ===";
  let test name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"placement"
      (List.concat_map
         (fun m ->
           let snapshot_trial, probe_trial = placement_case m in
           [
             test (Printf.sprintf "snapshot/m=%03d" m) snapshot_trial;
             test (Printf.sprintf "probe/m=%03d" m) probe_trial;
           ])
         placement_ms)
  in
  let limit, quota =
    if quick then (300, Time.second 0.05) else (2000, Time.second 0.5)
  in
  let rows = run_bechamel ~limit ~quota tests in
  placement_estimates := rows;
  let find kind m =
    match
      List.assoc_opt (Printf.sprintf "placement/%s/m=%03d" kind m) rows
    with
    | Some ns -> ns
    | None -> nan
  in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "m"; "snapshot/trial"; "probe/trial"; "speedup" ]
  in
  List.iter
    (fun m ->
      let snap_ns = find "snapshot" m and probe_ns = find "probe" m in
      Text_table.add_row t
        [
          string_of_int m;
          Printf.sprintf "%.2f us" (snap_ns /. 1e3);
          Printf.sprintf "%.2f us" (probe_ns /. 1e3);
          Printf.sprintf "%.1fx" (snap_ns /. probe_ns);
        ])
    placement_ms;
  Text_table.print t;
  print_endline
    "(cost of evaluating one candidate placement without committing it; \
     the snapshot path\n copies the whole O(m^2) network state, the \
     probe undoes only the cells written)";
  print_newline ()

(* -- replay microbench: rebuild-per-scenario vs compiled eval ----------- *)

(* One crash scenario on a paper-sized schedule.  The [rebuild] variant is
   the pre-optimization path (the whole event graph — node numbering,
   dependency edges, port/link chains, route evaluation — is rebuilt and
   traversed with a heap for the scenario); the [compiled] variant reuses
   a [Replay.compile]d simulator, runs the crash-time kernel on its
   scratch arena and builds the outcome record, which is what one
   [Replay.eval] costs; the [batched] variant runs the same kernel once
   per scenario of an [eval_batch] block.  The [compile] row prices
   building that simulator, which a campaign pays once per schedule it
   replays. *)
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
  let block =
    Array.make Monte_carlo.batch_block (Scenario.of_crash_times crash_time)
  in
  let rebuild () = Replay.reference sched ~crash_time in
  let compiled_eval () = Replay.eval compiled ~crash_time in
  let batched_eval () = Replay.eval_batch compiled block in
  let compile () = Replay.compile sched in
  (sched, compile, rebuild, compiled_eval, batched_eval)

let replay_ms = [ 10; 25; 50 ]

let replay_bench ?(quick = false) () =
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
    List.sort compare
      (run_bechamel ~limit ~quota:(Time.second 0.5)
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
               ])))
  in
  replay_estimates := rows;
  let find kind m =
    match List.assoc_opt (Printf.sprintf "replay/%s/m=%03d" kind m) rows with
    | Some ns -> ns
    | None -> nan
  in
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
      let rebuild_ns = find "rebuild" m in
      let batched_ns =
        find "batched" m /. float_of_int Monte_carlo.batch_block
      in
      Text_table.add_row t
        [
          string_of_int m;
          Printf.sprintf "%.2f us" (find "compile" m /. 1e3);
          Printf.sprintf "%.2f us" (rebuild_ns /. 1e3);
          Printf.sprintf "%.2f us" (find "compiled" m /. 1e3);
          Printf.sprintf "%.2f us" (batched_ns /. 1e3);
          Printf.sprintf "%.0fx" (rebuild_ns /. batched_ns);
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
       \ the batched path runs the same kernel once per scenario of a \
        %d-scenario [eval_batch] block)"
       Monte_carlo.batch_block);
  print_newline ();
  (* domain scaling of a whole Monte-Carlo campaign on the largest case *)
  let sched, _, _, _, _ = List.assoc (List.nth replay_ms 2) scheds in
  (* enough runs that the one compile per domain amortizes *)
  let runs = if quick then 2000 else 10_000 in
  let blocks = (runs + Monte_carlo.batch_block - 1) / Monte_carlo.batch_block in
  print_endline
    (Printf.sprintf
       "=== Monte-Carlo scaling: %d from-start scenarios in %d blocks, m=%d \
        (%d core%s available) ==="
       runs blocks (List.nth replay_ms 2)
       (Domain.recommended_domain_count ())
       (if Domain.recommended_domain_count () = 1 then "" else "s"));
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "domains"; "spawn"; "wall"; "scenarios/s"; "scaling" ]
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
  List.iter
    (fun domains ->
      Obs.Prof.reset ();
      (* the pool is the campaign-scoped resource: its domains are spawned
         exactly once here (profiled, so the spawn cost is attributed in
         the JSON) and every Monte-Carlo run of the row reuses them *)
      let spawn0 = Obs_clock.now () in
      let pool =
        Obs.Prof.phase "parallel.pool_spawn" (fun () ->
            Parallel.pool ~domains ())
      in
      let spawn_s = Obs_clock.now () -. spawn0 in
      let t0 = Obs_clock.now () in
      let report =
        Monte_carlo.run ~seed:3 ~runs ~pool ~crashes:2
          ~mode:Monte_carlo.From_start sched
      in
      ignore (report : Monte_carlo.report);
      let wall = Obs_clock.now () -. t0 in
      Parallel.shutdown pool;
      let prof = Obs.Prof.report () in
      if domains = 1 then wall1 := wall;
      let per_sec = float_of_int runs /. wall in
      let eval_rows =
        List.filter_map
          (fun p ->
            if p.Obs.Prof.ph_name <> "montecarlo.eval" then None
            else
              Some
                (Json.Obj
                   [
                     ("domain", Json.Int p.Obs.Prof.ph_domain);
                     ("calls", Json.Int p.Obs.Prof.ph_count);
                     ("busy_s", Json.Float p.Obs.Prof.ph_wall_s);
                     ("minor_words", Json.Float p.Obs.Prof.ph_minor_words);
                     ("major_words", Json.Float p.Obs.Prof.ph_major_words);
                     ( "minor_collections",
                       Json.Int p.Obs.Prof.ph_minor_collections );
                     ( "major_collections",
                       Json.Int p.Obs.Prof.ph_major_collections );
                   ]))
          prof.Obs.Prof.r_phases
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
          prof.Obs.Prof.r_workers
      in
      let profile =
        Json.Obj
          [ ("eval", Json.List eval_rows); ("workers", Json.List worker_rows) ]
      in
      let busy = List.fold_left (fun a w -> a +. w.Obs.Prof.wk_busy_s) 0. prof.Obs.Prof.r_workers in
      let idle = List.fold_left (fun a w -> a +. w.Obs.Prof.wk_idle_s) 0. prof.Obs.Prof.r_workers in
      let minor, mincol, majcol =
        List.fold_left
          (fun (w', a, b) p ->
            if p.Obs.Prof.ph_name = "montecarlo.eval" then
              ( w' +. p.Obs.Prof.ph_minor_words,
                a + p.Obs.Prof.ph_minor_collections,
                b + p.Obs.Prof.ph_major_collections )
            else (w', a, b))
          (0., 0, 0) prof.Obs.Prof.r_phases
      in
      (* spawn/teardown and scheduling slack: wall not spent evaluating or
         spinning in the steal loop, summed over all domains *)
      let other = (float_of_int domains *. wall) -. busy -. idle in
      Text_table.add_row attr
        [
          string_of_int domains;
          Printf.sprintf "%.3f" busy;
          Printf.sprintf "%.3f" idle;
          Printf.sprintf "%.3f" (Float.max 0. other);
          Printf.sprintf "%.0f" minor;
          Printf.sprintf "%d/%d" mincol majcol;
        ];
      replay_domain_rows :=
        !replay_domain_rows
        @ [ (domains, runs, blocks, spawn_s, wall, per_sec, profile) ];
      replay_profile_reports :=
        !replay_profile_reports @ [ (domains, Obs.Prof.to_json prof) ];
      Text_table.add_row t
        [
          string_of_int domains;
          Printf.sprintf "%.1f ms" (spawn_s *. 1e3);
          Printf.sprintf "%.3f s" wall;
          Printf.sprintf "%.0f" per_sec;
          Printf.sprintf "%.2fx" (!wall1 /. wall);
        ])
    [ 1; 2; 4 ];
  Obs.Prof.set_enabled false;
  Text_table.print t;
  print_endline
    "(same pre-drawn scenario set and byte-identical report for every \
     domain count;\n each row spawns a persistent pool once (the 'spawn' \
     column) and the campaign\n steals eval_batch blocks from it; scaling \
     above 1.0x needs more cores than\n domains — on a single-core host the \
     extra domains are pure spawn/GC overhead)";
  print_newline ();
  print_endline "=== where the wall time went (profiler attribution) ===";
  Text_table.print attr;
  print_endline
    "(busy = summed per-worker eval time, steal-idle = time in the steal \
     loop without\n an item, spawn/other = domains x wall minus both: domain \
     startup, GC pauses and\n core oversubscription)";
  print_newline ()

(* -- fault-plan microbench: degenerate crash path vs window engine ------ *)

(* [Replay.eval_plan] routes crash-only plans through the same code path
   as [eval]; any other event switches to the generalized down-window
   engine.  This bench prices that switch (same crashes, plus one no-op
   [Recover] to force the window engine), and times one budget-bounded
   adversary search on top. *)
let inject_case m =
  let rng = Rng.create (3000 + m) in
  let dag = Random_dag.generate_default rng in
  let params = Platform_gen.default ~m () in
  let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
  let sched = Caft.run ~epsilon:2 costs in
  let compiled = Replay.compile sched in
  let crash_plan =
    [
      Replay.Crash { proc = 0; at = neg_infinity };
      Replay.Crash { proc = 1; at = neg_infinity };
    ]
  in
  let window_plan = Replay.Recover { proc = 2; at = 0. } :: crash_plan in
  ( sched,
    (fun () -> Replay.eval_plan_degraded compiled crash_plan),
    fun () -> Replay.eval_plan_degraded compiled window_plan )

let inject_ms = [ 10; 25; 50 ]

let inject_bench ?(quick = false) () =
  let open Bechamel in
  print_endline
    "=== Fault-plan microbench: degenerate crash path vs window engine ===";
  let test name f = Test.make ~name (Staged.stage f) in
  let scheds = List.map (fun m -> (m, inject_case m)) inject_ms in
  let tests =
    Test.make_grouped ~name:"inject"
      (List.concat_map
         (fun (m, (_, degenerate, windows)) ->
           [
             test (Printf.sprintf "degenerate/m=%03d" m) degenerate;
             test (Printf.sprintf "windows/m=%03d" m) windows;
           ])
         scheds)
  in
  let limit, quota =
    if quick then (300, Time.second 0.05) else (2000, Time.second 0.5)
  in
  let rows = run_bechamel ~limit ~quota tests in
  inject_estimates := rows;
  let find kind m =
    match List.assoc_opt (Printf.sprintf "inject/%s/m=%03d" kind m) rows with
    | Some ns -> ns
    | None -> nan
  in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "m"; "degenerate/plan"; "windows/plan"; "overhead" ]
  in
  List.iter
    (fun m ->
      let deg_ns = find "degenerate" m and win_ns = find "windows" m in
      Text_table.add_row t
        [
          string_of_int m;
          Printf.sprintf "%.2f us" (deg_ns /. 1e3);
          Printf.sprintf "%.2f us" (win_ns /. 1e3);
          Printf.sprintf "%.2fx" (win_ns /. deg_ns);
        ])
    inject_ms;
  Text_table.print t;
  print_endline
    "(same two from-start crashes per plan; the windows row adds a no-op \
     Recover event,\n forcing the generalized down-window engine instead of \
     the crash-time fast path)";
  print_newline ();
  (* one adversary search on the smallest case *)
  let sched, _, _ = List.assoc (List.hd inject_ms) scheds in
  let budget = if quick then 500 else 20_000 in
  let t0 = Obs_clock.now () in
  let report = Inject.adversary ~budget sched in
  let wall = Obs_clock.now () -. t0 in
  adversary_row := Some (List.hd inject_ms, budget, report.Inject.iv_evals, wall);
  print_endline
    (Printf.sprintf
       "adversary m=%d budget=%d: %d evals in %.3f s (%s worst slowdown)"
       (List.hd inject_ms) budget report.Inject.iv_evals wall
       (match report.Inject.iv_worst with
       | Some w -> Printf.sprintf "%.2fx" w.Inject.w_slowdown
       | None -> "no"));
  print_newline ()

(* -- scheduler scaling: CAFT tasks/sec on large workflow families ------- *)

let sched_scale_rows : Json.t list ref = ref []
let sched_efficiency_rows : Json.t list ref = ref []

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

let sched_bench ?(quick = false) () =
  print_endline
    "=== Scheduler scaling: CAFT (eps=1) tasks/sec on workflow families ===";
  let ns = if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ] in
  let ms = if quick then [ 25 ] else [ 25; 100 ] in
  let epsilon = 1 in
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "family"; "n"; "m"; "tasks"; "wall"; "tasks/s"; "minor Mw"; "peak Mw" ]
  in
  let tps = Hashtbl.create 16 in
  Obs.Prof.set_enabled true;
  List.iter
    (fun family ->
      List.iter
        (fun m ->
          List.iter
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
              let reps = if n <= 1_000 then 7 else if n <= 10_000 then 3 else 1 in
              let best_wall = ref infinity in
              let minor = ref 0. and peak = ref 0 in
              let prof = ref None in
              for _ = 1 to reps do
                Gc.full_major ();
                Obs.Prof.reset ();
                let s0 = Gc.quick_stat () in
                let t0 = Obs_clock.now () in
                let sched = Caft.run ~seed:7 ~epsilon costs in
                let wall = Obs_clock.now () -. t0 in
                let s1 = Gc.quick_stat () in
                ignore (sched : Schedule.t);
                if wall < !best_wall then begin
                  best_wall := wall;
                  minor := s1.Gc.minor_words -. s0.Gc.minor_words;
                  peak := s1.Gc.top_heap_words;
                  prof := Some (Obs.Prof.report ())
                end
              done;
              let wall = !best_wall in
              let per_sec = float_of_int tasks /. wall in
              Hashtbl.replace tps (family, m, n) per_sec;
              let phases =
                match !prof with
                | None -> []
                | Some p ->
                    List.filter_map
                      (fun ph ->
                        let name = ph.Obs.Prof.ph_name in
                        if
                          String.length name >= 5
                          && String.sub name 0 5 = "caft."
                        then
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
              sched_scale_rows :=
                !sched_scale_rows
                @ [
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
                        ("peak_heap_words", Json.Int !peak);
                        ("phases", Json.List phases);
                      ];
                  ];
              Text_table.add_row t
                [
                  family;
                  string_of_int n;
                  string_of_int m;
                  string_of_int tasks;
                  Printf.sprintf "%.3f s" wall;
                  Printf.sprintf "%.0f" per_sec;
                  Printf.sprintf "%.1f" (!minor /. 1e6);
                  Printf.sprintf "%.1f" (float_of_int !peak /. 1e6);
                ])
            ns)
        ms)
    sched_families;
  Obs.Prof.set_enabled false;
  Text_table.print t;
  (* Same-run scaling efficiency tps(10^4)/tps(10^3): a machine-class
     robust ratio (both runs on the same host seconds apart), so it can
     gate in CI where absolute tasks/sec cannot.  A constant-per-task
     scheduler holds it near 1.0; reintroducing an O(n)-ish term in the
     per-task cost drops it hard. *)
  List.iter
    (fun family ->
      List.iter
        (fun m ->
          match
            ( Hashtbl.find_opt tps (family, m, 1_000),
              Hashtbl.find_opt tps (family, m, 10_000) )
          with
          | Some t3, Some t4 when t3 > 0. ->
              let eff = t4 /. t3 in
              sched_efficiency_rows :=
                !sched_efficiency_rows
                @ [
                    Json.Obj
                      [
                        ("family", Json.String family);
                        ("m", Json.Int m);
                        ("efficiency_1e4_over_1e3", Json.Float eff);
                      ];
                  ];
              print_endline
                (Printf.sprintf
                   "scaling efficiency %s m=%d: tps(1e4)/tps(1e3) = %.2f"
                   family m eff)
          | _ -> ())
        ms)
    sched_families;
  print_endline
    "(one CAFT run per cell; peak = process top_heap_words after the run, \
     minor = words\n allocated during it; the efficiency ratio is the \
     same-machine CI gate)";
  print_newline ()

(* -- machine-readable summary ------------------------------------------ *)

(* Previous contents of the bench JSON, for the rolling [history] field:
   each regeneration prepends the old document (minus its own history) so
   the last few runs travel with the file and benchdiff has in-file
   context.  Capped to keep the file reviewable. *)
let history_cap = 10

let read_prev_doc path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic -> (
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.parse s with
      | Ok (Json.Obj kvs as doc)
        when Option.bind (Json.member "schema" doc) Json.to_str
             = Some "ftsched/bench/v1" ->
          let entry = Json.Obj (List.filter (fun (k, _) -> k <> "history") kvs) in
          let prev_hist =
            Json.member "history" doc |> Option.fold ~none:[] ~some:Json.to_list
          in
          Some (entry, prev_hist)
      | _ -> None)

let take n l = List.filteri (fun i _ -> i < n) l

let write_bench_json path ~seed ~graphs ~domains =
  let opt_int = function None -> Json.Null | Some n -> Json.Int n in
  let float_or_null x = if Float.is_nan x then Json.Null else Json.Float x in
  let prev = read_prev_doc path in
  let history =
    match prev with
    | None -> []
    | Some (entry, prev) -> take history_cap (entry :: prev)
  in
  (* A partial run (e.g. --sched only) must not wipe the other sections
     of the committed document: a section whose accumulator is empty
     inherits the previous document's value. *)
  let keep ~empty key fresh =
    if not empty then fresh
    else
      match prev with
      | Some (entry, _) -> Option.value (Json.member key entry) ~default:fresh
      | None -> fresh
  in
  let json =
    Json.Obj
      [
        ("schema", Json.String "ftsched/bench/v1");
        ( "meta",
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("graphs_per_point", opt_int graphs);
              ("domains", opt_int domains);
              ( "recommended_domains",
                Json.Int (Domain.recommended_domain_count ()) );
              ("generated_at", Json.Float (Obs_clock.now ()));
            ] );
        ( "figures",
          keep ~empty:(!figure_timings = []) "figures" @@ Json.List
            (List.map
               (fun (n, wall, points) ->
                 Json.Obj
                   [
                     ("figure", Json.Int n);
                     ("points", Json.Int points);
                     ("wall_seconds", Json.Float wall);
                   ])
               !figure_timings) );
        ( "bechamel",
          keep ~empty:(!bechamel_estimates = []) "bechamel" @@ Json.List
            (List.map
               (fun (name, ns) ->
                 Json.Obj
                   [ ("name", Json.String name); ("ns_per_run", float_or_null ns) ])
               !bechamel_estimates) );
        ( "placement",
          keep ~empty:(!placement_estimates = []) "placement" @@ Json.List
            (List.filter_map
               (fun m ->
                 let find kind =
                   List.assoc_opt
                     (Printf.sprintf "placement/%s/m=%03d" kind m)
                     !placement_estimates
                 in
                 match (find "snapshot", find "probe") with
                 | Some snap_ns, Some probe_ns ->
                     Some
                       (Json.Obj
                          [
                            ("m", Json.Int m);
                            ("snapshot_ns_per_trial", float_or_null snap_ns);
                            ("probe_ns_per_trial", float_or_null probe_ns);
                            ("speedup", float_or_null (snap_ns /. probe_ns));
                          ])
                 | _ -> None)
               placement_ms) );
        ( "replay",
          keep ~empty:(!replay_estimates = []) "replay" @@ Json.List
            (List.filter_map
               (fun m ->
                 let find kind =
                   List.assoc_opt
                     (Printf.sprintf "replay/%s/m=%03d" kind m)
                     !replay_estimates
                 in
                 match (find "rebuild", find "compiled") with
                 | Some rebuild_ns, Some compiled_ns ->
                     Some
                       (Json.Obj
                          [
                            ("m", Json.Int m);
                            ( "compile_ns",
                              float_or_null
                                (Option.value (find "compile") ~default:nan) );
                            ("rebuild_ns_per_scenario", float_or_null rebuild_ns);
                            ( "compiled_ns_per_scenario",
                              float_or_null compiled_ns );
                            ("speedup", float_or_null (rebuild_ns /. compiled_ns));
                          ])
                 | _ -> None)
               replay_ms) );
        ( "replay_batch",
          keep ~empty:(!replay_estimates = []) "replay_batch" @@ Json.List
            (List.filter_map
               (fun m ->
                 let find kind =
                   List.assoc_opt
                     (Printf.sprintf "replay/%s/m=%03d" kind m)
                     !replay_estimates
                 in
                 match (find "rebuild", find "batched") with
                 | Some rebuild_ns, Some batched_block_ns ->
                     let batched_ns =
                       batched_block_ns
                       /. float_of_int Monte_carlo.batch_block
                     in
                     Some
                       (Json.Obj
                          [
                            ("m", Json.Int m);
                            ("block", Json.Int Monte_carlo.batch_block);
                            ( "batched_ns_per_scenario",
                              float_or_null batched_ns );
                            ( "batched_vs_rebuild",
                              float_or_null (rebuild_ns /. batched_ns) );
                          ])
                 | _ -> None)
               replay_ms) );
        ( "replay_domains",
          keep ~empty:(!replay_domain_rows = []) "replay_domains" @@ Json.List
            (List.map
               (fun (domains, runs, blocks, spawn_s, wall, per_sec, profile) ->
                 Json.Obj
                   [
                     ("domains", Json.Int domains);
                     ("runs", Json.Int runs);
                     ("blocks", Json.Int blocks);
                     ("pool_spawn_seconds", Json.Float spawn_s);
                     ("wall_seconds", Json.Float wall);
                     ("scenarios_per_sec", float_or_null per_sec);
                     ("profile", profile);
                   ])
               !replay_domain_rows) );
        ( "inject",
          keep ~empty:(!inject_estimates = []) "inject" @@ Json.List
            (List.filter_map
               (fun m ->
                 let find kind =
                   List.assoc_opt
                     (Printf.sprintf "inject/%s/m=%03d" kind m)
                     !inject_estimates
                 in
                 match (find "degenerate", find "windows") with
                 | Some deg_ns, Some win_ns ->
                     Some
                       (Json.Obj
                          [
                            ("m", Json.Int m);
                            ("degenerate_ns_per_plan", float_or_null deg_ns);
                            ("windows_ns_per_plan", float_or_null win_ns);
                            ("overhead", float_or_null (win_ns /. deg_ns));
                          ])
                 | _ -> None)
               inject_ms) );
        ( "adversary",
          keep ~empty:(!adversary_row = None) "adversary"
          @@
          match !adversary_row with
          | None -> Json.Null
          | Some (m, budget, evals, wall) ->
              Json.Obj
                [
                  ("m", Json.Int m);
                  ("budget", Json.Int budget);
                  ("evals", Json.Int evals);
                  ("wall_seconds", Json.Float wall);
                ] );
        ( "sched_scale",
          keep ~empty:(!sched_scale_rows = []) "sched_scale"
          @@ Json.List !sched_scale_rows );
        ( "sched_efficiency",
          keep ~empty:(!sched_scale_rows = []) "sched_efficiency"
          @@ Json.List !sched_efficiency_rows );
        ("history", Json.List history);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 json);
      output_char oc '\n');
  Obs_log.info
    "wrote %s (%d figures, %d bechamel estimates, %d placement estimates, %d \
     replay estimates)"
    path
    (List.length !figure_timings)
    (List.length !bechamel_estimates)
    (List.length !placement_estimates)
    (List.length !replay_estimates)

(* -- command line ------------------------------------------------------ *)

let () =
  let figures = ref [] in
  let graphs = ref None in
  let domains = ref None in
  let seed = ref 2008 in
  let tables = ref [] in
  let bechamel = ref false in
  let placement = ref false in
  let sched = ref false in
  let replay = ref false in
  let inject = ref false in
  let quick = ref false in
  let all = ref true in
  let json = ref "BENCH_schedulers.json" in
  let profile_json = ref "" in
  let speclist =
    [
      ( "--figure",
        Arg.Int
          (fun n ->
            all := false;
            figures := !figures @ [ n ]),
        "N  regenerate figure N (1..6); repeatable" );
      ( "--graphs",
        Arg.Int (fun n -> graphs := Some n),
        "N  random graphs per point (default: the paper's 60)" );
      ("--seed", Arg.Set_int seed, "N  campaign seed (default 2008)");
      ( "--domains",
        Arg.Int (fun n -> domains := Some n),
        "N  parallelize figure campaigns over N domains" );
      ( "--table",
        Arg.String
          (fun s ->
            all := false;
            tables := !tables @ [ s ]),
        "NAME  regenerate a table: messages | outforest | batch | insertion | topology | mechanism | crashes | links | passive | models" );
      ( "--bechamel",
        Arg.Unit
          (fun () ->
            all := false;
            bechamel := true),
        "  run the bechamel micro-benchmarks only" );
      ( "--sched",
        Arg.Unit
          (fun () ->
            all := false;
            sched := true),
        "  run the scheduler scaling bench only (CAFT tasks/sec on the \
         staged/pipelines workflow families)" );
      ( "--placement",
        Arg.Unit
          (fun () ->
            all := false;
            placement := true),
        "  run the placement microbench only (snapshot vs probe trials)" );
      ( "--replay",
        Arg.Unit
          (fun () ->
            all := false;
            replay := true),
        "  run the replay microbench only (rebuild-per-scenario vs compiled \
         eval, domain scaling)" );
      ( "--inject",
        Arg.Unit
          (fun () ->
            all := false;
            inject := true),
        "  run the fault-plan microbench only (degenerate crash path vs \
         window engine, one adversary search)" );
      ( "--quick",
        Arg.Set quick,
        "  shrink the microbench quotas (CI smoke mode)" );
      ( "--json",
        Arg.Set_string json,
        "FILE  machine-readable summary (default BENCH_schedulers.json; \
         empty to skip)" );
      ( "--profile-json",
        Arg.Set_string profile_json,
        "FILE  write the full per-row profiler reports of the replay \
         domain-scaling bench (CI artifact)" );
    ]
  in
  Arg.parse speclist
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench/main.exe: regenerate the paper's figures and tables";
  if !all then begin
    run_figures [ 1; 2; 3; 4; 5; 6 ] !graphs !seed !domains;
    messages_table !graphs !seed;
    outforest_table !seed;
    batch_table !graphs !seed;
    insertion_table !graphs !seed;
    topology_table !graphs !seed;
    mechanism_table !graphs !seed;
    crash_sweep_table !graphs !seed;
    links_table !graphs !seed;
    passive_table !graphs !seed;
    models_table !graphs !seed;
    bechamel_benches ();
    placement_bench ~quick:!quick ();
    replay_bench ~quick:!quick ();
    inject_bench ~quick:!quick ();
    sched_bench ~quick:!quick ()
  end
  else begin
    if !figures <> [] then run_figures !figures !graphs !seed !domains;
    List.iter
      (function
        | "messages" -> messages_table !graphs !seed
        | "outforest" -> outforest_table !seed
        | "batch" -> batch_table !graphs !seed
        | "insertion" -> insertion_table !graphs !seed
        | "topology" -> topology_table !graphs !seed
        | "mechanism" -> mechanism_table !graphs !seed
        | "crashes" -> crash_sweep_table !graphs !seed
        | "links" -> links_table !graphs !seed
        | "passive" -> passive_table !graphs !seed
        | "models" -> models_table !graphs !seed
        | other -> Obs_log.warn "unknown table %s" other)
      !tables;
    if !bechamel then bechamel_benches ();
    if !placement then placement_bench ~quick:!quick ();
    if !sched then sched_bench ~quick:!quick ();
    if !replay then replay_bench ~quick:!quick ();
    if !inject then inject_bench ~quick:!quick ()
  end;
  if !json <> "" then
    write_bench_json !json ~seed:!seed ~graphs:!graphs ~domains:!domains;
  if !profile_json <> "" then begin
    let doc =
      Json.Obj
        [
          ("schema", Json.String "ftsched/profile-rows/v1");
          ( "rows",
            Json.List
              (List.map
                 (fun (domains, prof) ->
                   Json.Obj [ ("domains", Json.Int domains); ("profile", prof) ])
                 !replay_profile_reports) );
        ]
    in
    let oc = open_out !profile_json in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string ~indent:2 doc);
        output_char oc '\n');
    Obs_log.info "wrote %s (%d profiled replay rows)" !profile_json
      (List.length !replay_profile_reports)
  end
