(* The three epsilon-verdicts on small generated instances: the static
   certificate against its list-of-sets oracle, and the certificate, the
   exhaustive check and the adversary against each other. *)

let verdict_lines (r : Resilience.report) =
  Array.to_list
    (Array.map
       (Format.asprintf "%a" Resilience.pp_verdict)
       r.Resilience.rs_tasks)

let certify_outcome certify =
  match certify () with
  | r -> Ok r
  | exception Resilience.Family_overflow task -> Error task

(* -- the certificate and its oracle ------------------------------------ *)

(* Most instances fit one word per set; some have m >= 63, so sets span
   several words.  Each schedule is certified at its own epsilon and one
   above, so refutations and the order of equally small kill sets count,
   and under small family limits, so the overflow step counts too. *)
let certify_gen =
  QCheck.Gen.(
    pair
      (Small_instances.gen
         ~m:(frequency [ (4, int_range 3 8); (1, int_range 63 70) ])
         ~tasks:(int_range 4 14) ~epsilon:(int_range 1 3))
      (frequency [ (1, return None); (2, map Option.some (int_range 1 40)) ]))

let print_certify (i, limit) =
  Printf.sprintf "%s max_family=%s" (Small_instances.print i)
    (match limit with None -> "default" | Some l -> string_of_int l)

let prop_certify_matches_oracle =
  QCheck.Test.make ~count:1000
    ~name:"certify = list-of-sets oracle, at epsilon and epsilon + 1"
    (QCheck.make certify_gen ~print:print_certify)
    (fun (i, max_family) ->
      let sched = Small_instances.schedule i in
      List.for_all
        (fun epsilon ->
          let lib =
            certify_outcome (fun () ->
                Resilience.certify ~epsilon ~domains:1 ?max_family sched)
          and oracle =
            certify_outcome (fun () ->
                Oracle.certify ~epsilon ~domains:1 ?max_family sched)
          in
          match (lib, oracle) with
          | Ok a, Ok b ->
              verdict_lines a = verdict_lines b
              && a.Resilience.rs_counterexample = b.Resilience.rs_counterexample
              && a.Resilience.rs_resists = b.Resilience.rs_resists
              && a.Resilience.rs_epsilon = b.Resilience.rs_epsilon
          | Error t, Error t' -> t = t'
          | _ -> false)
        [ i.Small_instances.epsilon; i.Small_instances.epsilon + 1 ])

(* -- certificate, exhaustive check and adversary ------------------------ *)

(* At m <= 8 and epsilon <= 3 the adversary's default budget enumerates
   every size-epsilon crash set, so all three verdicts are exact.  The
   adversary certifies only when its scan found a refutation, so its
   whole report is also compared with the oracle's, which always
   certifies. *)
let agree_gen =
  Small_instances.gen
    ~m:(QCheck.Gen.int_range 3 8)
    ~tasks:(QCheck.Gen.int_range 4 14)
    ~epsilon:(QCheck.Gen.int_range 1 3)

let prop_three_verdicts_agree =
  QCheck.Test.make ~count:80
    ~name:"certificate, exhaustive check and adversary agree"
    (QCheck.make agree_gen ~print:Small_instances.print)
    (fun i ->
      let sched = Small_instances.schedule i in
      let epsilon = i.Small_instances.epsilon in
      let cert = Resilience.certify ~epsilon ~domains:1 sched in
      let check = Fault_check.check ~epsilon sched in
      let adv = Inject.adversary sched in
      let resists = cert.Resilience.rs_resists in
      Json.to_string (Inject.to_json adv)
      = Json.to_string (Inject.to_json (Oracle.adversary sched))
      && check.Fault_check.exhaustive
      && check.Fault_check.resists = resists
      && adv.Inject.iv_cert_resists = Some resists
      &&
      match cert.Resilience.rs_counterexample with
      | None -> true
      | Some (procs, _) ->
          Option.map (fun k -> k.Inject.k_procs) adv.Inject.iv_min_kill
          = Some procs)

(* -- verdicts over sparse interconnects --------------------------------- *)

(* A schedule booked over a routed platform carries its routes, so the
   exhaustive check and the adversary replay the links it was booked on:
   the check's worst latency is the worst completed one-shot replay of its
   crash sets, and the adversary's fault-free latency is the schedule's
   own. *)
let routed_topologies =
  [
    ("ring", fun () -> Topology.ring 8);
    ("star", fun () -> Topology.star 8);
    ("mesh", fun () -> Topology.mesh2d ~rows:2 ~cols:4 ());
    ("torus", fun () -> Topology.torus2d ~rows:2 ~cols:4 ());
    ("hypercube", fun () -> Topology.hypercube 3);
  ]

let routed_instance ~seed ~tasks topo =
  let rng = Rng.create seed in
  let dag =
    Random_dag.generate rng
      {
        Random_dag.default with
        Random_dag.tasks_min = tasks;
        tasks_max = tasks;
      }
  in
  Costs.create dag (Topology.platform topo) (fun task _ ->
      80. +. (7. *. float_of_int (task mod 9)))

let worst_completed sched ~epsilon =
  let m = Platform.proc_count (Schedule.platform sched) in
  Seq.fold_left
    (fun acc crashed ->
      let out = Replay.crash_from_start sched ~crashed in
      if out.Replay.completed then Float.max acc out.Replay.latency else acc)
    neg_infinity
    (Fault_check.subsets ~n:m ~k:epsilon)

let test_routed_verdicts () =
  List.iter
    (fun (tname, topo) ->
      List.iter
        (fun (aname, run) ->
          List.iter
            (fun (epsilon, seed) ->
              let name =
                Printf.sprintf "%s/%s/eps%d/seed%d" tname aname epsilon seed
              in
              let sched =
                run ~epsilon (routed_instance ~seed ~tasks:20 (topo ()))
              in
              let check = Fault_check.check ~epsilon sched in
              Helpers.check_bool (name ^ " resists") true
                check.Fault_check.resists;
              Helpers.check_float (name ^ " check worst latency")
                (worst_completed sched ~epsilon)
                check.Fault_check.worst_latency;
              Helpers.check_float (name ^ " adversary fault-free latency")
                (Schedule.latency_zero_crash sched)
                (Inject.adversary sched).Inject.iv_fault_free)
            [ (1, 1); (1, 2); (2, 1); (2, 2) ])
        Helpers.schedulers)
    routed_topologies

(* The star schedule the routed verdicts were first seen to disagree on:
   replayed over the clique, the check reported 6745.696 and the
   adversary a fault-free latency of 6203.304. *)
let test_star_verdicts () =
  let sched =
    Caft.run ~epsilon:1
      (routed_instance ~seed:3 ~tasks:40 (Topology.star 8))
  in
  let round x = Float.round (x *. 1000.) /. 1000. in
  Helpers.check_float "check worst latency" 9807.720
    (round (Fault_check.check ~epsilon:1 sched).Fault_check.worst_latency);
  Helpers.check_float "latency_zero_crash" 9503.507
    (round (Schedule.latency_zero_crash sched));
  Helpers.check_float "adversary fault-free latency" 9503.507
    (round (Inject.adversary sched).Inject.iv_fault_free)

(* The same schedule saved and reloaded keeps its routes, so its
   verdicts are the in-memory ones. *)
let test_star_verdicts_reloaded () =
  let sched =
    Caft.run ~epsilon:1
      (routed_instance ~seed:3 ~tasks:40 (Topology.star 8))
  in
  let sched = Schedule_io.of_string (Schedule_io.to_string sched) in
  let round x = Float.round (x *. 1000.) /. 1000. in
  Helpers.check_float "check worst latency" 9807.720
    (round (Fault_check.check ~epsilon:1 sched).Fault_check.worst_latency);
  Helpers.check_float "adversary fault-free latency" 9503.507
    (round (Inject.adversary sched).Inject.iv_fault_free)

let suite =
  [
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 280_001 |])
      prop_certify_matches_oracle;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 280_002 |])
      prop_three_verdicts_agree;
    Alcotest.test_case "routed verdicts replay the booked routes" `Quick
      test_routed_verdicts;
    Alcotest.test_case "star verdicts pinned" `Quick test_star_verdicts;
    Alcotest.test_case "star verdicts pinned after a reload" `Quick
      test_star_verdicts_reloaded;
  ]
