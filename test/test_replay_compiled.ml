(* Differential and determinism tests for the compile-once replay engine:

   - on >= 100 (seed, model, fabric, epsilon) configurations, compile
     the schedule once and assert that [Replay.eval] produces outcomes
     identical (bit-for-bit, including [nan] latencies) to the
     rebuild-per-scenario [Oracle_replay.run] oracle, across fault-free,
     from-start and timed scenarios — and that [eval_batch], on a block
     of one and on one block over all the scenarios of the set,
     reproduces the oracle's latency and ([~degradation:true]) its
     degradation summary per element;
   - [Monte_carlo.run], [Monte_carlo.degradation_curve] and
     [Fault_check.check] reports are byte-identical for domains in
     {1, 2, 3, 4} and equal the per-scenario oracles;
   - [Scenario.draw_row] consumes the exact per-scenario RNG stream;
   - generated tie-heavy instances (integer costs, zero-volume edges)
     are accepted by both engines and replay identically through
     [eval], [eval_batch] and [reference];
   - blocks on both sides of [eval_batch]'s chunk size, with crash
     modes that differ between lanes of one chunk, give per scenario
     what [eval] and [reference] give;
   - [compile] rejects a cyclic static order, and one compile of a
     paper-sized schedule and one [eval_batch] block stay within their
     allocation budgets. *)

let float_eq a b =
  (* bitwise, so nan = nan and 0. <> -0. — "same result" means the same
     word, not merely numerically close *)
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let outcome_equal (a : Replay.outcome) (b : Replay.outcome) =
  a.Replay.completed = b.Replay.completed
  && float_eq a.Replay.latency b.Replay.latency
  && a.Replay.failed_tasks = b.Replay.failed_tasks
  && Array.length a.Replay.replicas = Array.length b.Replay.replicas
  && Array.for_all2
       (fun ra rb ->
         Array.for_all2
           (fun oa ob ->
             match (oa, ob) with
             | Replay.Ran { start = sa; finish = fa },
               Replay.Ran { start = sb; finish = fb } ->
                 float_eq sa sb && float_eq fa fb
             | Replay.Crashed, Replay.Crashed -> true
             | Replay.Starved ta, Replay.Starved tb -> ta = tb
             | _ -> false)
           ra rb)
       a.Replay.replicas b.Replay.replicas

let check_differential name sched ~crash_time compiled =
  let fresh = Oracle_replay.run sched ~crash_time in
  let cached = Replay.eval compiled ~crash_time in
  if not (outcome_equal fresh cached) then
    Alcotest.failf "%s: compiled eval differs from fresh replay" name;
  (* a block of one crash row: the batch latency column is the oracle's
     latency *)
  let one = Replay.eval_batch compiled crash_time ~first:0 ~count:1 in
  if not (float_eq one.Replay.br_latency.(0) fresh.Replay.latency) then
    Alcotest.failf "%s: eval_batch of one %.6f <> reference latency %.6f"
      name one.Replay.br_latency.(0) fresh.Replay.latency;
  fresh

(* One configuration: build a schedule, compile once, then diff several
   scenario shapes against the rebuild-per-scenario oracle. *)
let run_config seed =
  let rng = Rng.create (7000 + seed) in
  let model =
    match seed mod 3 with
    | 0 -> Netstate.Macro_dataflow
    | 1 -> Netstate.One_port
    | _ -> Netstate.Multiport 2
  in
  let platform =
    match seed mod 4 with
    | 0 | 1 -> Helpers.uniform_platform (4 + (seed mod 4))
    | 2 -> Topology.platform (Topology.ring (4 + (seed mod 3)))
    | _ -> Topology.platform (Topology.star (4 + (seed mod 3)))
  in
  let m = Platform.proc_count platform in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 16; tasks_max = 16 }
  in
  let costs =
    Costs.create dag platform (fun t p ->
        30. +. (7. *. float_of_int ((t + p) mod 5)))
  in
  let epsilon = 1 + (seed mod 2) in
  let sched = Caft.run ~model ~seed ~epsilon costs in
  let compiled = Replay.compile sched in
  let name = Printf.sprintf "config %d" seed in
  let scenarios = ref [] in
  let diff ~crash_time =
    let fresh = check_differential name sched ~crash_time compiled in
    scenarios := (crash_time, fresh) :: !scenarios
  in
  (* fault-free *)
  let no_crash = Array.make m infinity in
  diff ~crash_time:no_crash;
  (* from-start crash sets of size 1, 2 and epsilon+1 (the last one can
     starve tasks: the nan/failed path must agree too) *)
  List.iter
    (fun k ->
      let crashed = Rng.sample_without_replacement rng (min k m) m in
      let crash_time =
        Array.init m (fun p ->
            if List.mem p crashed then neg_infinity else infinity)
      in
      diff ~crash_time)
    [ 1; 2; epsilon + 1 ];
  (* timed crashes inside the horizon *)
  let horizon = Schedule.makespan sched in
  let crash_time =
    Array.init m (fun _ ->
        if Helpers.coin rng then Rng.float rng horizon else infinity)
  in
  diff ~crash_time;
  (* fault-free again: the scratch arena must fully reset after the
     crash scenarios *)
  diff ~crash_time:no_crash;
  (* the scenarios of the set again as ONE block of rows:
     eval_batch must reproduce the oracle's latency (and, in degradation
     mode, its degradation summary under the Monte-Carlo completion rule)
     per element *)
  let scen = Array.of_list (List.rev !scenarios) in
  let block = Array.concat (Array.to_list (Array.map fst scen)) in
  let count = Array.length scen in
  let batch = Replay.eval_batch compiled block ~first:0 ~count in
  Array.iteri
    (fun i (_, (fresh : Replay.outcome)) ->
      if not (float_eq batch.Replay.br_latency.(i) fresh.Replay.latency) then
        Alcotest.failf "%s: eval_batch latency %d: %h <> %h" name i
          batch.Replay.br_latency.(i) fresh.Replay.latency)
    scen;
  let dbatch = Replay.eval_batch ~degradation:true compiled block ~first:0 ~count in
  Array.iteri
    (fun i (_, fresh) ->
      let d = Oracle.degradation sched fresh in
      if dbatch.Replay.br_tasks.(i) <> d.Replay.d_tasks then
        Alcotest.failf "%s: eval_batch tasks %d" name i;
      if dbatch.Replay.br_sinks.(i) <> d.Replay.d_sinks then
        Alcotest.failf "%s: eval_batch sinks %d" name i;
      if not (float_eq dbatch.Replay.br_frontier.(i) d.Replay.d_frontier) then
        Alcotest.failf "%s: eval_batch frontier %d" name i;
      let expect =
        if d.Replay.d_tasks = d.Replay.d_task_count then d.Replay.d_frontier
        else nan
      in
      if not (float_eq dbatch.Replay.br_latency.(i) expect) then
        Alcotest.failf "%s: eval_batch degraded latency %d" name i)
    scen

let test_differential () =
  (* 108 configurations x 6 scenarios each, spanning all three models,
     clique/ring/star fabrics and epsilon 1 and 2 *)
  for seed = 0 to 107 do
    run_config seed
  done

(* -- domain-count independence ---------------------------------------- *)

let bytes_of x = Marshal.to_string x []

let test_montecarlo_domains () =
  let _, costs = Helpers.random_instance ~seed:11 ~m:6 ~tasks:20 () in
  let sched = Caft.run ~epsilon:1 costs in
  (* three full blocks and a partial one, so the domains really split the
     campaign *)
  let runs = (3 * Replay.batch_block) + 17 in
  (* beyond epsilon too, so the degradation aggregation path is pinned *)
  List.iter
    (fun crashes ->
      List.iter
        (fun mode ->
          let campaign domains =
            bytes_of
              (Monte_carlo.run ~seed:5 ~runs ~domains ~crashes ~mode sched)
          in
          let r1 = campaign 1 in
          (* the per-scenario oracle is the differential baseline *)
          Helpers.check_bool "montecarlo matches per-scenario oracle" true
            (r1
            = bytes_of
                (Oracle.monte_carlo ~seed:5 ~runs ~crashes ~mode sched));
          List.iter
            (fun domains ->
              Helpers.check_bool "montecarlo domains byte-identical" true
                (r1 = campaign domains))
            [ 2; 3; 4 ])
        [ Monte_carlo.From_start; Monte_carlo.Timed (Schedule.makespan sched) ])
    [ 1; 2 ] (* within epsilon (plain path) and beyond (degradation path) *);
  let curve domains =
    bytes_of
      (Monte_carlo.degradation_curve ~seed:6 ~runs:600 ~domains
         ~mode:Monte_carlo.From_start sched)
  in
  let c1 = curve 1 in
  List.iter
    (fun domains ->
      Helpers.check_bool "degradation curve domains byte-identical" true
        (c1 = curve domains))
    [ 2; 3; 4 ]

let test_fault_check_domains () =
  let _, costs = Helpers.random_instance ~seed:4 ~m:7 ~tasks:20 () in
  let sched = Caft.run ~epsilon:1 costs in
  let run_eps epsilon =
    let r1 = bytes_of (Fault_check.check ~domains:1 ~epsilon sched) in
    List.iter
      (fun domains ->
        Helpers.check_bool
          (Printf.sprintf "check eps %d domains=%d byte-identical" epsilon
             domains)
          true
          (r1 = bytes_of (Fault_check.check ~domains ~epsilon sched)))
      [ 2; 3; 4 ]
  in
  (* resisting (full enumeration) and refuting (the first counterexample
     in rank order, whatever later blocks of its wave found) *)
  run_eps 1;
  run_eps 3

let test_fault_check_matches_sequential_semantics () =
  (* the multi-domain exhaustive check must agree with plain wrappers on a
     known refutation: epsilon+1 crashes on an epsilon=1 schedule *)
  let _, costs = Helpers.random_instance ~seed:9 ~m:6 ~tasks:18 () in
  let sched = Caft.run ~epsilon:1 costs in
  let r = Fault_check.check ~domains:4 ~epsilon:2 sched in
  (match r.Fault_check.counterexample with
  | None -> ()
  | Some (crashed, failed) ->
      let out = Replay.crash_from_start sched ~crashed in
      Helpers.check_bool "counterexample actually fails" false
        out.Replay.completed;
      Helpers.check_bool "failed tasks match replay" true
        (failed = out.Replay.failed_tasks));
  (* scenarios_checked in a refuting run is the 1-based rank of the
     counterexample — by construction at most the total *)
  Helpers.check_bool "checked within total" true
    (r.Fault_check.scenarios_checked <= Fault_check.count_combinations 6 2)

let test_draw_row_stream () =
  (* [Scenario.draw_row], called in run order, must consume the root
     generator stream exactly as the historical per-scenario
     [uniform_procs] / [timed] draws did — otherwise every earlier
     campaign report would shift *)
  let m = 9 and runs = 40 and count = 3 in
  let rows =
    Oracle.draw_rows (Rng.create 42) ~m ~count ~mode:Scenario.From_start
      ~runs
  in
  let rng = Rng.create 42 in
  for i = 0 to runs - 1 do
    let procs = Scenario.uniform_procs rng ~m ~count in
    let expect = Array.make m infinity in
    List.iter (fun p -> expect.(p) <- neg_infinity) procs;
    if Array.sub rows (i * m) m <> expect then
      Alcotest.failf "from-start scenario %d differs from uniform_procs" i
  done;
  let horizon = 123.5 in
  let rows =
    Oracle.draw_rows (Rng.create 43) ~m ~count
      ~mode:(Scenario.Timed horizon) ~runs
  in
  let rng = Rng.create 43 in
  for i = 0 to runs - 1 do
    let pairs = Scenario.timed rng ~m ~count ~horizon in
    let expect = Array.make m infinity in
    List.iter (fun (p, t) -> expect.(p) <- t) pairs;
    for p = 0 to m - 1 do
      if not (float_eq rows.((i * m) + p) expect.(p)) then
        Alcotest.failf "timed scenario %d proc %d: %h <> %h" i p
          rows.((i * m) + p) expect.(p)
    done
  done;
  (* more crashes than processors crash every processor *)
  let rows =
    Oracle.draw_rows (Rng.create 44) ~m ~count:(m + 2)
      ~mode:Scenario.From_start ~runs:3
  in
  Helpers.check_bool "count > m crashes all" true
    (Array.for_all (fun t -> t = neg_infinity) rows)

(* -- tie-heavy generated differential ---------------------------------- *)

(* Small DAGs with integer execution and communication costs and a third
   of the edges carrying no data, so static leg, reception and start
   times tie often.  The compiled resource chains must break those ties
   by (key1, key2, id) exactly as [reference]'s sorts do, or the replays
   drift. *)
type tie_case = {
  seed : int;
  tasks : int;
  m : int;
  model : Netstate.model;
  routed : bool;  (* a ring fabric instead of the clique *)
  epsilon : int;
}

let tie_case_gen =
  QCheck.Gen.(
    map
      (fun ((seed, tasks, m), (model, routed, epsilon)) ->
        { seed; tasks; m; model; routed; epsilon })
      (pair
         (triple (int_range 0 1_000_000) (int_range 3 14) (int_range 4 6))
         (triple
            (oneofl
               [
                 Netstate.One_port;
                 Netstate.Multiport 2;
                 Netstate.Macro_dataflow;
               ])
            bool (int_range 0 3))))

let print_tie_case c =
  Printf.sprintf "seed=%d tasks=%d m=%d model=%s routed=%b eps=%d"
    c.seed c.tasks c.m
    (match c.model with
    | Netstate.One_port -> "one-port"
    | Netstate.Multiport k -> Printf.sprintf "multiport-%d" k
    | Netstate.Macro_dataflow -> "macro-dataflow")
    c.routed c.epsilon

let tie_schedule c =
  let rng = Rng.create c.seed in
  let edges = ref [] in
  for dst = 1 to c.tasks - 1 do
    for src = 0 to dst - 1 do
      if Rng.int rng 3 = 0 then
        edges := (src, dst, float_of_int (Rng.int rng 3)) :: !edges
    done
  done;
  let dag = Dag.make ~n:c.tasks ~edges:(List.rev !edges) () in
  let platform =
    if c.routed then Topology.platform (Topology.ring c.m)
    else Helpers.uniform_platform c.m
  in
  let exec =
    Array.init c.tasks (fun _ ->
        Array.init c.m (fun _ -> float_of_int (1 + Rng.int rng 3)))
  in
  let costs = Costs.create dag platform (fun t p -> exec.(t).(p)) in
  let model = c.model and seed = c.seed and epsilon = c.epsilon in
  let sched =
    match c.seed mod 3 with
    | 0 -> Caft.run ~model ~seed ~epsilon costs
    | 1 -> Ftsa.run ~model ~seed ~epsilon costs
    | _ -> Ftbar.run ~model ~seed ~epsilon costs
  in
  (rng, sched)

(* Fault-free, from-start (1 .. epsilon+1 crashes) and timed scenarios:
   [eval] and one [eval_batch] block must match [reference] bit for
   bit. *)
let tie_replays_agree c rng sched =
  let m = c.m in
  let compiled = Replay.compile sched in
  let from_start k =
    let crashed = Rng.sample_without_replacement rng k m in
    Array.init m (fun p ->
        if List.mem p crashed then neg_infinity else infinity)
  in
  (* integer crash instants land on static start/finish times *)
  let horizon = int_of_float (Schedule.makespan sched) in
  let timed () =
    Array.init m (fun _ ->
        if Helpers.coin rng then float_of_int (Rng.int rng (horizon + 1))
        else infinity)
  in
  let scenarios =
    Array.of_list
      ((Array.make m infinity
       :: List.init (c.epsilon + 1) (fun k -> from_start (k + 1)))
      @ List.init 3 (fun _ -> timed ()))
  in
  let fresh =
    Array.map
      (fun crash_time -> Oracle_replay.run sched ~crash_time)
      scenarios
  in
  let batch =
    Replay.eval_batch compiled
      (Array.concat (Array.to_list scenarios))
      ~first:0 ~count:(Array.length scenarios)
  in
  Array.for_all2
    (fun crash_time out -> outcome_equal out (Replay.eval compiled ~crash_time))
    scenarios fresh
  && Array.for_all2
       (fun lat (out : Replay.outcome) -> float_eq lat out.Replay.latency)
       batch.Replay.br_latency fresh

(* The size of the largest group of zero-length messages that share a
   receive port and a reception window. *)
let recv_tie_group sched =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (msg : Netstate.message) ->
      if msg.Netstate.m_duration = 0. then begin
        let key = (msg.Netstate.m_dst_proc, msg.Netstate.m_arrival) in
        Hashtbl.replace groups key
          (1 + Option.value (Hashtbl.find_opt groups key) ~default:0)
      end)
    (Schedule.messages sched);
  Hashtbl.fold (fun _ n acc -> max n acc) groups 0

(* An FTSA schedule ([seed mod 3 = 1]) whose one-port receive ports get
   groups of zero-length messages with the same reception window (four on
   one port).  Such a group has no static order; a receive chain that
   ordered it by id ran against the send order on schedules of this shape
   and closed a cycle, so both engines rejected them. *)
let tie_reproducer =
  {
    seed = 206017;
    tasks = 10;
    m = 6;
    model = Netstate.One_port;
    routed = false;
    epsilon = 2;
  }

let tie_case_agrees c =
  let rng, sched = tie_schedule c in
  tie_replays_agree c rng sched

let test_tie_reproducer () =
  let _, sched = tie_schedule tie_reproducer in
  Helpers.check_bool "tie reproducer: a receive-port tie group" true
    (recv_tie_group sched >= 2);
  Helpers.check_bool "tie reproducer: both engines accept and agree" true
    (tie_case_agrees tie_reproducer)

let prop_tie_differential =
  QCheck.Test.make ~count:300
    ~name:"tie-heavy instances: eval and eval_batch = reference"
    (QCheck.make tie_case_gen ~print:print_tie_case) tie_case_agrees

(* -- lane-boundary differential ----------------------------------------- *)

(* [eval_batch] walks its block in chunks of [Replay.batch_lanes]
   scenarios, one arena lane per scenario.  Blocks just below, at and
   above the chunk size (and spanning several chunks) must give, per
   scenario, exactly what one [eval] and [reference] give: the latency
   column and the degradation columns, bit for bit.  Neighbouring lanes
   of one chunk get different crash modes. *)
type lane_case = {
  l_seed : int;
  l_model : Netstate.model;
  l_ring : bool;
  l_epsilon : int;
  l_block : int;
}

let lane_blocks =
  let l = Replay.batch_lanes in
  [ 1; l - 1; l; l + 1; (2 * l) + 3; 256 ]

let lane_case_gen =
  QCheck.Gen.(
    map
      (fun ((l_seed, l_block), (l_model, l_ring, l_epsilon)) ->
        { l_seed; l_model; l_ring; l_epsilon; l_block })
      (pair
         (pair (int_range 0 1_000_000) (oneofl lane_blocks))
         (triple
            (oneofl
               [
                 Netstate.One_port;
                 Netstate.Multiport 2;
                 Netstate.Macro_dataflow;
               ])
            bool (int_range 1 2))))

let print_lane_case c =
  Printf.sprintf "seed=%d block=%d model=%s ring=%b eps=%d"
    c.l_seed c.l_block
    (match c.l_model with
    | Netstate.One_port -> "one-port"
    | Netstate.Multiport k -> Printf.sprintf "multiport-%d" k
    | Netstate.Macro_dataflow -> "macro-dataflow")
    c.l_ring c.l_epsilon

let lanes_agree c =
  let rng = Rng.create c.l_seed in
  let m = 5 in
  let platform =
    if c.l_ring then Topology.platform (Topology.ring m)
    else Helpers.uniform_platform m
  in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 10; tasks_max = 10 }
  in
  let costs =
    Costs.create dag platform (fun t p ->
        20. +. (5. *. float_of_int ((t * 3 + p) mod 7)))
  in
  let sched =
    Caft.run ~model:c.l_model ~seed:c.l_seed ~epsilon:c.l_epsilon costs
  in
  let compiled = Replay.compile sched in
  let horizon = Schedule.makespan sched in
  (* from-start or timed crashes, 0 .. epsilon + 1 of them (both sides
     of the tolerance) *)
  let rows = Array.make (c.l_block * m) infinity in
  for j = 0 to c.l_block - 1 do
    let k = Rng.int rng (c.l_epsilon + 2) in
    let procs = Rng.sample_without_replacement rng k m in
    if Helpers.coin rng then
      Scenario.write_timed rows ~m j
        (List.map (fun p -> (p, Rng.float rng horizon)) procs)
    else Scenario.write_from_start rows ~m j procs
  done;
  let batch = Replay.eval_batch compiled rows ~first:0 ~count:c.l_block in
  let dbatch =
    Replay.eval_batch ~degradation:true compiled rows ~first:0 ~count:c.l_block
  in
  Array.for_all Fun.id
    (Array.init c.l_block
       (fun i ->
         let crash_time = Array.sub rows (i * m) m in
         let fresh = Oracle_replay.run sched ~crash_time in
         let d = Oracle.degradation sched fresh in
         outcome_equal fresh (Replay.eval compiled ~crash_time)
         && float_eq batch.Replay.br_latency.(i) fresh.Replay.latency
         && dbatch.Replay.br_tasks.(i) = d.Replay.d_tasks
         && dbatch.Replay.br_sinks.(i) = d.Replay.d_sinks
         && float_eq dbatch.Replay.br_frontier.(i) d.Replay.d_frontier
         && float_eq dbatch.Replay.br_latency.(i)
              (if d.Replay.d_tasks = d.Replay.d_task_count then
                 d.Replay.d_frontier
               else nan)))

let prop_lane_boundaries =
  QCheck.Test.make ~count:120
    ~name:"eval_batch chunk boundaries: every lane = eval = reference"
    (QCheck.make lane_case_gen ~print:print_lane_case)
    lanes_agree

(* -- acyclicity check ------------------------------------------------- *)

(* t0 -> t1 with both replicas on processor 0, but t1 placed first: the
   processor chain t1 -> t0 closes a cycle with the data edge t0 -> t1. *)
let test_cyclic_rejected () =
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 1.) ] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:1. dag platform in
  let replicas =
    [
      {
        Schedule.r_task = 0;
        r_index = 0;
        r_proc = 0;
        r_start = 1.;
        r_finish = 2.;
        r_inputs = [];
      };
      {
        Schedule.r_task = 1;
        r_index = 0;
        r_proc = 0;
        r_start = 0.;
        r_finish = 1.;
        r_inputs =
          [ Schedule.Local { l_pred = 0; l_pred_replica = 0; l_finish = 2. } ];
      };
    ]
  in
  let sched =
    Schedule.create ~algorithm:"hand" ~epsilon:0 ~model:Netstate.One_port
      ~costs replicas
  in
  let raises_failure f =
    match f () with exception Failure _ -> true | _ -> false
  in
  Helpers.check_bool "compile rejects the cycle" true
    (raises_failure (fun () -> ignore (Replay.compile sched)));
  Helpers.check_bool "crash_from_start propagates it" true
    (raises_failure (fun () -> ignore (Replay.crash_from_start sched ~crashed:[])))

(* -- compile allocation ----------------------------------------------- *)

(* Words one [Replay.compile] allocates (minor plus direct-major) on a
   figure-3-sized FTSA schedule: m = 20, epsilon = 5, 2766 messages.  The
   flat-array build measures 80k words, most of them the compiled value
   itself; the list-based build it replaced allocated 443k. *)
let compile_words_bound = 140_000.

let test_compile_allocation () =
  let rng = Rng.create 2008 in
  let dag = Random_dag.generate_default rng in
  let costs =
    Platform_gen.instance rng ~granularity:1.0
      (Platform_gen.default ~m:20 ())
      dag
  in
  let sched = Ftsa.run ~epsilon:5 costs in
  (* a collection first, so that no survivor of the scheduler run is
     promoted, and counted against the compile, in the window *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Replay.compile sched));
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  if words > compile_words_bound then
    Alcotest.failf
      "Replay.compile allocated %.0f words (bound %.0f, %d messages)" words
      compile_words_bound
      (Schedule.message_count sched);
  Printf.printf "compile: %.0f words, %d messages\n" words
    (Schedule.message_count sched)

(* -- eval_batch allocation ---------------------------------------------- *)

(* Minor words one [eval_batch] block of 256 from-start scenarios
   allocates per scenario on a 50-task CAFT schedule, m = 20, epsilon = 3.
   The lane kernel measures 1: the result columns, and nothing per
   scenario.  A kernel helper that returns a boxed float allocates per
   node and lane, which takes it far past the bound. *)
let batch_words_bound = 100.

let test_batch_allocation () =
  let costs =
    match Instance.make ~seed:11 ~family:"random" ~tasks:50 ~m:20 () with
    | Ok (_, costs) -> costs
    | Error e -> Alcotest.fail e
  in
  let sched = Caft.run ~epsilon:3 costs in
  let c = Replay.compile sched in
  let runs = 256 in
  let rows =
    Oracle.draw_rows (Rng.create 1) ~m:20 ~count:3
      ~mode:Scenario.From_start ~runs
  in
  ignore (Replay.eval_batch c rows ~first:0 ~count:runs);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Replay.eval_batch c rows ~first:0 ~count:runs));
  let words = (Gc.minor_words () -. before) /. float_of_int runs in
  if words > batch_words_bound then
    Alcotest.failf "Replay.eval_batch allocated %.0f words per scenario (bound %.0f)"
      words batch_words_bound;
  Printf.printf "eval_batch: %.0f words per scenario\n" words

(* Words that compiling a message-free schedule on the m = 800 clique and
   evaluating one 32-row block allocate.  The lane arena holds one
   free-time cell per lane for each physical link some route books, here
   none; an arena sized by the platform's 800 x 799 links takes 20M words
   for the link cells alone. *)
let arena_words_bound = 2e6

let test_arena_sized_by_use () =
  let m = 800 in
  let platform = Helpers.uniform_platform m in
  (* every task is fastest on processor 17, so HEFT books no message *)
  let sched =
    Heft.run
      (Costs.create (Helpers.chain3 ()) platform (fun _ p ->
           if p = 17 then 1. else 10.))
  in
  Helpers.check_int "message-free" 0 (Schedule.message_count sched);
  let rows = Array.make (32 * m) infinity in
  rows.(17) <- 0.;
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let c = Replay.compile sched in
  let b = Replay.eval_batch c rows ~first:0 ~count:32 in
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  Helpers.check_bool "row 0 loses every task" true
    (Float.is_nan b.Replay.br_latency.(0));
  Helpers.check_float "row 1 completes" 3. b.Replay.br_latency.(1);
  if words > arena_words_bound then
    Alcotest.failf "compile + one block allocated %.0f words (bound %.0f)"
      words arena_words_bound;
  Printf.printf "message-free m = 800: %.0f words\n" words

let suite =
  [
    Alcotest.test_case "compiled eval ≡ fresh replay (108 configs)" `Quick
      test_differential;
    Alcotest.test_case "montecarlo domain-count independent" `Quick
      test_montecarlo_domains;
    Alcotest.test_case "fault-check domain-count independent" `Quick
      test_fault_check_domains;
    Alcotest.test_case "fault-check counterexample semantics" `Quick
      test_fault_check_matches_sequential_semantics;
    Alcotest.test_case "draw_row ≡ per-scenario stream" `Quick
      test_draw_row_stream;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 150_015 |])
      prop_tie_differential;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 190_032 |])
      prop_lane_boundaries;
    Alcotest.test_case "tie reproducer accepted by both engines" `Quick
      test_tie_reproducer;
    Alcotest.test_case "compile rejects a cyclic static order" `Quick
      test_cyclic_rejected;
    Alcotest.test_case "compile allocation budget" `Quick
      test_compile_allocation;
    Alcotest.test_case "eval_batch allocation budget" `Quick
      test_batch_allocation;
    Alcotest.test_case "message-free arena sized by booked links" `Quick
      test_arena_sized_by_use;
  ]
