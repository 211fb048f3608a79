(* Tests for the static analysis subsystem: resilience certification
   against exhaustive replay, mapping classification, lint rules, and
   certificate round-trips. *)

(* -- hand-built schedules ---------------------------------------------- *)

let fork3 () = Dag.make ~n:3 ~edges:[ (0, 1, 1.); (0, 2, 1.) ] ()

let replica ~task ~index ~proc ~start ~finish inputs =
  {
    Schedule.r_task = task;
    r_index = index;
    r_proc = proc;
    r_start = start;
    r_finish = finish;
    r_inputs = inputs;
  }

let message ?arrival ~pred ~pred_replica ~src_proc ~src_finish ~dst_proc () =
  let volume = 1. in
  let leg_finish = src_finish +. volume in
  Schedule.Message
    {
      Netstate.m_source =
        {
          Netstate.s_task = pred;
          s_replica = pred_replica;
          s_proc = src_proc;
          s_finish = src_finish;
          s_volume = volume;
        };
      m_dst_proc = dst_proc;
      m_duration = volume;
      m_leg_start = src_finish;
      m_leg_finish = leg_finish;
      m_arrival = Option.value arrival ~default:leg_finish;
    }

let local ~pred ~pred_replica ~finish =
  Schedule.Local
    { l_pred = pred; l_pred_replica = pred_replica; l_finish = finish }

(* A fork 0 -> {1, 2} on four processors, epsilon = 1, where BOTH replicas
   of task 1 are supplied by replica 0 of task 0 (on P0): crashing P0
   starves task 1.  Task 2 is mapped one-to-one and survives.
   [Schedule.create] only checks shape, so the tampering goes through. *)
let tampered_fork () =
  let dag = fork3 () in
  let platform = Helpers.uniform_platform 4 in
  let costs = Helpers.flat_costs ~c:10. dag platform in
  let replicas =
    [
      replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:10. [];
      replica ~task:0 ~index:1 ~proc:1 ~start:0. ~finish:10. [];
      replica ~task:1 ~index:0 ~proc:2 ~start:11. ~finish:21.
        [ message ~pred:0 ~pred_replica:0 ~src_proc:0 ~src_finish:10.
            ~dst_proc:2 () ];
      replica ~task:1 ~index:1 ~proc:3 ~start:12. ~finish:22.
        [ message ~pred:0 ~pred_replica:0 ~src_proc:0 ~src_finish:11.
            ~dst_proc:3 () ];
      replica ~task:2 ~index:0 ~proc:0 ~start:10. ~finish:20.
        [ local ~pred:0 ~pred_replica:0 ~finish:10. ];
      replica ~task:2 ~index:1 ~proc:1 ~start:10. ~finish:20.
        [ local ~pred:0 ~pred_replica:1 ~finish:10. ];
    ]
  in
  Schedule.create ~algorithm:"tampered" ~epsilon:1 ~model:Netstate.One_port
    ~costs replicas

(* -- static certificate vs exhaustive replay --------------------------- *)

let check_agreement ~name sched ~epsilon =
  let static = Resilience.certify ~epsilon sched in
  let dynamic = Fault_check.check ~static ~epsilon sched in
  Helpers.check_bool (name ^ ": exhaustive") true dynamic.Fault_check.exhaustive;
  Helpers.check_bool (name ^ ": verdicts agree") true
    (static.Resilience.rs_resists = dynamic.Fault_check.resists);
  Helpers.check_bool (name ^ ": static_agrees") true
    (dynamic.Fault_check.static_agrees = Some true)

let test_fork_agreement () =
  for seed = 1 to 50 do
    let rng = Rng.create seed in
    let dag = Families.fork (4 + (seed mod 4)) in
    let params = Platform_gen.default ~m:5 () in
    let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
    let sched = Caft.run ~seed ~epsilon:1 costs in
    check_agreement ~name:(Printf.sprintf "fork seed %d" seed) sched ~epsilon:1
  done

let test_random_agreement () =
  List.iter
    (fun (name, run) ->
      for seed = 1 to 6 do
        let _, costs = Helpers.random_instance ~seed ~m:5 ~tasks:20 () in
        let sched = run ~epsilon:1 costs in
        check_agreement
          ~name:(Printf.sprintf "%s seed %d" name seed)
          sched ~epsilon:1
      done)
    Helpers.schedulers

let test_epsilon2_agreement () =
  for seed = 1 to 5 do
    let _, costs = Helpers.random_instance ~seed ~m:6 ~tasks:15 () in
    let sched = Caft.run ~epsilon:2 costs in
    check_agreement ~name:(Printf.sprintf "eps2 seed %d" seed) sched ~epsilon:2;
    (* certifying beyond the replication degree must also match replay *)
    check_agreement
      ~name:(Printf.sprintf "eps3 seed %d" seed)
      sched ~epsilon:3
  done

let test_refutes_unreplicated () =
  let _, costs = Helpers.random_instance ~seed:42 () in
  let sched = Heft.run costs in
  let static = Resilience.certify ~epsilon:1 sched in
  Helpers.check_bool "heft refuted" false static.Resilience.rs_resists;
  match static.Resilience.rs_counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some (crashed, starved) ->
      Helpers.check_int "single crash suffices" 1 (List.length crashed);
      Helpers.check_bool "names starved tasks" true (starved <> []);
      let out = Replay.crash_from_start sched ~crashed in
      Helpers.check_bool "replay confirms" false out.Replay.completed

let test_tampered_counterexample () =
  let sched = tampered_fork () in
  let static = Resilience.certify ~epsilon:1 sched in
  Helpers.check_bool "tampered refuted" false static.Resilience.rs_resists;
  (match static.Resilience.rs_counterexample with
  | None -> Alcotest.fail "expected a counterexample"
  | Some (crashed, starved) ->
      Helpers.check_bool "crash is {P0}" true (crashed = [ 0 ]);
      Helpers.check_bool "task 1 starved" true (List.mem 1 starved);
      let out = Replay.crash_from_start sched ~crashed in
      Helpers.check_bool "replay confirms starvation" false out.Replay.completed;
      Helpers.check_bool "replay starves task 1" true
        (List.mem 1 out.Replay.failed_tasks));
  (* per-task verdicts: 0 and 2 survive, 1 is refuted *)
  (match static.Resilience.rs_tasks.(1) with
  | Resilience.Refuted _ -> ()
  | Resilience.Certified _ -> Alcotest.fail "task 1 should be refuted");
  (match static.Resilience.rs_tasks.(2) with
  | Resilience.Certified _ -> ()
  | Resilience.Refuted _ -> Alcotest.fail "task 2 should be certified");
  (* the dynamic checker adopts the static counterexample *)
  let dynamic = Fault_check.check ~static ~epsilon:1 sched in
  Helpers.check_bool "dynamic agrees" true
    (dynamic.Fault_check.static_agrees = Some true);
  Helpers.check_bool "dynamic refutes too" false dynamic.Fault_check.resists

let test_survivors_matches_replay () =
  let _, costs = Helpers.random_instance ~seed:9 ~m:6 ~tasks:25 () in
  let sched = Caft.run ~epsilon:1 costs in
  let rng = Rng.create 11 in
  for _ = 1 to 20 do
    let crashed = Scenario.uniform_procs rng ~m:6 ~count:2 in
    let out = Replay.crash_from_start sched ~crashed in
    let starved = Resilience.starved_tasks sched ~crashed in
    Helpers.check_bool "completion agrees" true
      (out.Replay.completed = (starved = []));
    if not out.Replay.completed then
      Helpers.check_bool "starved sets equal" true
        (List.sort compare out.Replay.failed_tasks = starved)
  done

let test_parallel_certification () =
  (* a wide fork exercises the per-level Parallel.map path; the verdict
     must match the sequential run *)
  let rng = Rng.create 3 in
  let dag = Families.fork 40 in
  let params = Platform_gen.default ~m:6 () in
  let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
  let sched = Caft.run ~epsilon:1 costs in
  let seq = Resilience.certify ~epsilon:1 ~domains:1 sched in
  let par = Resilience.certify ~epsilon:1 ~domains:4 sched in
  Helpers.check_bool "same verdict" true
    (seq.Resilience.rs_resists = par.Resilience.rs_resists);
  Array.iteri
    (fun i v ->
      Helpers.check_bool
        (Printf.sprintf "task %d verdict class" i)
        true
        (match (v, par.Resilience.rs_tasks.(i)) with
        | Resilience.Certified _, Resilience.Certified _
        | Resilience.Refuted _, Resilience.Refuted _ ->
            true
        | _ -> false))
    seq.Resilience.rs_tasks

(* -- certificates ------------------------------------------------------ *)

let test_certificate_roundtrip () =
  let _, costs = Helpers.random_instance ~seed:5 ~m:5 ~tasks:15 () in
  let sched = Caft.run ~epsilon:1 costs in
  let report = Resilience.certify ~epsilon:1 sched in
  let cert = Certificate.of_report sched report in
  let str = Json.to_string (Certificate.to_json cert) in
  let cert' =
    match Certificate.of_json (Json.parse_exn str) with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Helpers.check_bool "roundtrip is a fixed point" true
    (Json.to_string (Certificate.to_json cert') = str);
  (match Certificate.check sched cert' with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("re-verification failed: " ^ e));
  (* tampering is caught: claim a refutation the schedule survives *)
  let forged =
    {
      cert' with
      Certificate.c_resists = false;
      c_verdicts =
        (let v = Array.copy cert'.Certificate.c_verdicts in
         v.(0) <- Resilience.Refuted [ 0 ];
         v);
    }
  in
  (match Certificate.check sched forged with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "forged refutation accepted");
  (* and: flipping only the flag contradicts the verdicts *)
  match
    Certificate.check sched { cert' with Certificate.c_resists = false }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "inconsistent resists flag accepted"

let test_certificate_of_refuted () =
  let sched = tampered_fork () in
  let report = Resilience.certify ~epsilon:1 sched in
  let cert = Certificate.of_report sched report in
  Helpers.check_bool "records non-resistance" false cert.Certificate.c_resists;
  match Certificate.check sched cert with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("refuted certificate should verify: " ^ e)

(* Malformed processor ids must come back as [Error], never as an
   exception or a silently shortened support set.  Each form edits one
   field of a CAFT certificate (8 tasks, m = 4): [top] the document,
   [verdict] the first disjoint-supports verdict. *)
let malformed_certificates =
  let set key v fields = (key, v) :: List.remove_assoc key fields in
  let support_ids ids = set "supports" (Json.List [ Json.List ids ]) in
  let refuted ids fields =
    [
      ("task", List.assoc "task" fields);
      ("verdict", Json.String "refuted");
      ("crash", Json.List ids);
    ]
  in
  [
    ("support id too large", Fun.id, support_ids [ Json.Int 99 ]);
    ("negative support id", Fun.id, support_ids [ Json.Int (-1) ]);
    ("non-int support id", Fun.id, support_ids [ Json.Int 0; Json.String "x" ]);
    ("negative processors", set "processors" (Json.Int (-1)), Fun.id);
    ("zero processors", set "processors" (Json.Int 0), Fun.id);
    ("crash id too large", Fun.id, refuted [ Json.Int 99 ]);
    ("negative crash id", Fun.id, refuted [ Json.Int (-1) ]);
  ]

let test_certificate_malformed (top, verdict) () =
  let _, costs = Helpers.random_instance ~seed:3 ~m:4 ~tasks:8 () in
  let sched = Caft.run ~epsilon:1 costs in
  let cert =
    Certificate.of_report sched (Resilience.certify ~epsilon:1 sched)
  in
  let edited = ref false in
  let edit_verdict = function
    | Json.Obj fields
      when (not !edited)
           && Json.member "witness" (Json.Obj fields)
              = Some (Json.String "disjoint-supports") ->
        edited := true;
        Json.Obj (verdict fields)
    | v -> v
  in
  let json =
    match Certificate.to_json cert with
    | Json.Obj fields ->
        let verdicts = Json.to_list (List.assoc "verdicts" fields) in
        Json.Obj
          (top
             (("verdicts", Json.List (List.map edit_verdict verdicts))
             :: List.remove_assoc "verdicts" fields))
    | _ -> assert false
  in
  Helpers.check_bool "a disjoint-supports verdict was edited" true !edited;
  match Certificate.of_json json with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed certificate accepted"

(* -- mapping ----------------------------------------------------------- *)

let test_mapping_fork_one_to_one () =
  let rng = Rng.create 7 in
  let dag = Families.fork 6 in
  let params = Platform_gen.default ~m:5 () in
  let costs = Platform_gen.instance rng ~granularity:1.0 params dag in
  let sched = Caft.run ~epsilon:1 costs in
  let m = Mapping.verify sched in
  Helpers.check_bool "fork is an out-forest" true m.Mapping.mp_out_forest;
  Helpers.check_bool "all joins one-to-one" true m.Mapping.mp_all_one_to_one;
  Helpers.check_bool "within the linear bound" true m.Mapping.mp_within_linear;
  Helpers.check_int "one join per edge" (Dag.edge_count dag)
    (Array.length m.Mapping.mp_joins)

let test_mapping_fallback_and_invalid () =
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 1.) ] () in
  let platform = Helpers.uniform_platform 4 in
  let costs = Helpers.flat_costs ~c:10. dag platform in
  let all_suppliers dst_proc =
    [
      message ~pred:0 ~pred_replica:0 ~src_proc:0 ~src_finish:10.
        ~dst_proc ();
      message ~pred:0 ~pred_replica:1 ~src_proc:1 ~src_finish:10.
        ~dst_proc ();
    ]
  in
  let fallback =
    Schedule.create ~algorithm:"fallback" ~epsilon:1 ~model:Netstate.One_port
      ~costs
      [
        replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:10. [];
        replica ~task:0 ~index:1 ~proc:1 ~start:0. ~finish:10. [];
        replica ~task:1 ~index:0 ~proc:2 ~start:11. ~finish:21.
          (all_suppliers 2);
        replica ~task:1 ~index:1 ~proc:3 ~start:11. ~finish:21.
          (all_suppliers 3);
      ]
  in
  let m = Mapping.verify fallback in
  Helpers.check_int "fallback join" 1 (Mapping.count m Mapping.Fallback);
  Helpers.check_bool "within quadratic" true m.Mapping.mp_within_quadratic;
  (* the all-to-all join resists epsilon = 1 and the certifier agrees *)
  check_agreement ~name:"fallback schedule" fallback ~epsilon:1;
  (* a replica with no supplier at all makes the join invalid *)
  let invalid =
    Schedule.create ~algorithm:"invalid" ~epsilon:1 ~model:Netstate.One_port
      ~costs
      [
        replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:10. [];
        replica ~task:0 ~index:1 ~proc:1 ~start:0. ~finish:10. [];
        replica ~task:1 ~index:0 ~proc:2 ~start:11. ~finish:21.
          [ message ~pred:0 ~pred_replica:0 ~src_proc:0 ~src_finish:10.
              ~dst_proc:2 () ];
        replica ~task:1 ~index:1 ~proc:3 ~start:11. ~finish:21. [];
      ]
  in
  let mi = Mapping.verify invalid in
  Helpers.check_int "invalid join" 1 (Mapping.count mi Mapping.Invalid);
  Helpers.check_bool "not all one-to-one" false mi.Mapping.mp_all_one_to_one

(* -- lint -------------------------------------------------------------- *)

let test_lint_clean_schedule () =
  let _, costs = Helpers.random_instance ~seed:13 ~m:5 ~tasks:20 () in
  let sched = Caft.run ~epsilon:1 costs in
  let findings = Lint.run sched in
  Helpers.check_int "no errors on a valid schedule" 0 (Lint.errors findings)

let test_lint_granularity () =
  let _, costs =
    Helpers.random_instance ~seed:13 ~m:5 ~tasks:20 ~granularity:0.05 ()
  in
  let sched = Caft.run ~epsilon:1 costs in
  let findings = Lint.run sched in
  Helpers.check_bool "granularity smell fires" true
    (List.exists
       (fun f -> f.Lint.f_rule = "smell/granularity")
       findings)

let test_lint_tampered () =
  let dag = fork3 () in
  let platform = Helpers.uniform_platform 4 in
  let costs = Helpers.flat_costs ~c:10. dag platform in
  let dup =
    message ~pred:0 ~pred_replica:0 ~src_proc:0 ~src_finish:10. ~dst_proc:2 ()
  in
  let sched =
    Schedule.create ~algorithm:"tampered" ~epsilon:1 ~model:Netstate.One_port
      ~costs
      [
        replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:10. [];
        replica ~task:0 ~index:1 ~proc:1 ~start:0. ~finish:10. [];
        (* duplicate supply: the same supplier replica booked twice *)
        replica ~task:1 ~index:0 ~proc:2 ~start:11. ~finish:21. [ dup; dup ];
        (* causality break: arrival before the link leg completes *)
        replica ~task:1 ~index:1 ~proc:3 ~start:10. ~finish:20.
          [ message ~arrival:10. ~pred:0 ~pred_replica:1 ~src_proc:1
              ~src_finish:10. ~dst_proc:3 () ];
        replica ~task:2 ~index:0 ~proc:0 ~start:10. ~finish:20.
          [ local ~pred:0 ~pred_replica:0 ~finish:10. ];
        replica ~task:2 ~index:1 ~proc:1 ~start:10. ~finish:20.
          [ local ~pred:0 ~pred_replica:1 ~finish:10. ];
      ]
  in
  let findings = Lint.run sched in
  let has rule = List.exists (fun f -> f.Lint.f_rule = rule) findings in
  Helpers.check_bool "duplicate supply flagged" true
    (has "redundancy/duplicate-supply");
  Helpers.check_bool "arrival before leg flagged" true (has "message-arrival");
  Helpers.check_bool "errors counted" true (Lint.errors findings > 0);
  (* findings are sorted by decreasing severity *)
  let ranks =
    List.map
      (fun f ->
        match f.Lint.f_severity with
        | Lint.Error -> 0
        | Lint.Warning -> 1
        | Lint.Info -> 2)
      findings
  in
  Helpers.check_bool "severity sorted" true (ranks = List.sort compare ranks)

(* -- one checker: lint's errors are the validator's violations ----------- *)

type defect =
  | Leg_before_producer  (** a leg departs before its producer finishes *)
  | Arrival_before_leg  (** an arrival before its leg finishes *)
  | Start_before_data  (** a replica starts before its data *)
  | Send_overlap  (** legs overlapping on one send port *)
  | Recv_overlap  (** legs overlapping on one receive port *)
  | Link_overlap  (** two legs overlapping on one link *)
  | Local_finish  (** an edited local finish *)
  | Message_duration  (** an edited message duration *)
  | Self_message  (** a message from the consumer's own processor *)

let defect_name = function
  | Leg_before_producer -> "leg-before-producer"
  | Arrival_before_leg -> "arrival-before-leg"
  | Start_before_data -> "start-before-data"
  | Send_overlap -> "send-overlap"
  | Recv_overlap -> "recv-overlap"
  | Link_overlap -> "link-overlap"
  | Local_finish -> "local-finish"
  | Message_duration -> "message-duration"
  | Self_message -> "self-message"

let defects_for model =
  [
    Leg_before_producer; Arrival_before_leg; Start_before_data; Local_finish;
    Message_duration; Self_message;
  ]
  @
  (* macro-dataflow has no ports, so port and link defects break nothing *)
  match model with
  | Netstate.Macro_dataflow -> []
  | Netstate.One_port | Netstate.Multiport _ ->
      [ Send_overlap; Recv_overlap; Link_overlap ]

let models = [ Netstate.One_port; Netstate.Multiport 2; Netstate.Macro_dataflow ]
let algo_names = [| "CAFT"; "FTSA"; "FTBAR"; "HEFT" |]

let build_schedule ~algo ~model ~seed =
  let _, costs = Helpers.random_instance ~seed ~m:5 ~tasks:14 () in
  match algo with
  | 0 -> Caft.run ~model ~seed ~epsilon:1 costs
  | 1 -> Ftsa.run ~model ~seed ~epsilon:1 costs
  | 2 -> Ftbar.run ~model ~seed ~epsilon:1 costs
  | _ -> Heft.run ~model ~seed costs

let with_replicas sched replicas =
  Schedule.create ~algorithm:(Schedule.algorithm sched) ~epsilon:(Schedule.epsilon sched)
    ~model:(Schedule.model sched) ~costs:(Schedule.costs sched) replicas

(* Replace the [pick]-th (cyclically) input accepted by [edit], where
   [edit r s = Some inputs] splices [inputs] in place of [s]; [None] when
   no input qualifies. *)
let edit_input ~pick edit replicas =
  let sites =
    List.concat_map
      (fun (r : Schedule.replica) ->
        List.filter_map
          (fun s -> Option.map (fun ins -> (r, s, ins)) (edit r s))
          r.Schedule.r_inputs)
      replicas
  in
  match sites with
  | [] -> None
  | _ ->
      let r0, s0, ins = List.nth sites (pick mod List.length sites) in
      Some
        (List.map
           (fun (r : Schedule.replica) ->
             if r != r0 then r
             else
               {
                 r with
                 Schedule.r_inputs =
                   List.concat_map
                     (fun s -> if s == s0 then ins else [ s ])
                     r.Schedule.r_inputs;
               })
           replicas)

let edit_message ~pick f =
  edit_input ~pick (fun r -> function
    | Schedule.Message m -> f r m
    | Schedule.Local _ -> None)

(* [m] plus [copies] copies of it, copy [i] transformed by [shift i];
   only legs long enough for a shift to overlap qualify *)
let duplicated ~copies shift m =
  if m.Netstate.m_duration < 0.01 then None
  else
    Some
      (Schedule.Message m
      :: List.init copies (fun i -> Schedule.Message (shift (i + 1) m)))

let tamper ~defect ~pick sched =
  let replicas = Schedule.all_replicas sched in
  (* copies needed to exceed a port's capacity *)
  let capacity =
    match Schedule.model sched with Netstate.Multiport k -> k | _ -> 1
  in
  let edited =
    match defect with
    | Leg_before_producer ->
        edit_message ~pick
          (fun _ m ->
            Some
              [
                Schedule.Message
                  {
                    m with
                    Netstate.m_leg_start =
                      m.Netstate.m_source.Netstate.s_finish -. 1.;
                  };
              ])
          replicas
    | Arrival_before_leg ->
        edit_message ~pick
          (fun _ m ->
            Some
              [
                Schedule.Message
                  { m with Netstate.m_arrival = m.Netstate.m_leg_finish -. 1. };
              ])
          replicas
    | Message_duration ->
        edit_message ~pick
          (fun _ m ->
            Some
              [
                Schedule.Message
                  { m with Netstate.m_duration = m.Netstate.m_duration +. 1. };
              ])
          replicas
    | Self_message ->
        edit_message ~pick
          (fun r m ->
            let src =
              { m.Netstate.m_source with Netstate.s_proc = r.Schedule.r_proc }
            in
            Some [ Schedule.Message { m with Netstate.m_source = src } ])
          replicas
    | Send_overlap ->
        (* same leg, receive windows spread apart *)
        edit_message ~pick
          (fun _ m ->
            duplicated ~copies:capacity
              (fun i m ->
                let d = float_of_int i *. (m.Netstate.m_duration +. 1.) in
                { m with Netstate.m_arrival = m.Netstate.m_arrival +. d })
              m)
          replicas
    | Recv_overlap ->
        (* same arrival, legs spread apart *)
        edit_message ~pick
          (fun _ m ->
            duplicated ~copies:capacity
              (fun i m ->
                let d = float_of_int i *. (m.Netstate.m_duration +. 1.) in
                {
                  m with
                  Netstate.m_leg_start = m.Netstate.m_leg_start +. d;
                  m_leg_finish = m.Netstate.m_leg_finish +. d;
                })
              m)
          replicas
    | Link_overlap ->
        (* one copy half a leg later: a link carries one leg at a time *)
        edit_message ~pick
          (fun _ m ->
            duplicated ~copies:1
              (fun _ m ->
                let d = m.Netstate.m_duration /. 2. in
                {
                  m with
                  Netstate.m_leg_start = m.Netstate.m_leg_start +. d;
                  m_leg_finish = m.Netstate.m_leg_finish +. d;
                  m_arrival = m.Netstate.m_arrival +. d;
                })
              m)
          replicas
    | Local_finish ->
        edit_input ~pick
          (fun _ -> function
            | Schedule.Local l ->
                Some [ Schedule.Local { l with l_finish = l.l_finish -. 1. } ]
            | Schedule.Message _ -> None)
          replicas
    | Start_before_data -> (
        let fed =
          List.filter
            (fun (r : Schedule.replica) -> r.Schedule.r_inputs <> [])
            replicas
        in
        match fed with
        | [] -> None
        | _ ->
            let r0 = List.nth fed (pick mod List.length fed) in
            let first =
              Flt.min_list
                (List.map
                   (function
                     | Schedule.Local l -> l.l_finish
                     | Schedule.Message m -> m.Netstate.m_arrival)
                   r0.Schedule.r_inputs)
            in
            (* shifted whole, so only the start moves against the data *)
            let delta = r0.Schedule.r_start -. first +. 1. in
            Some
              (List.map
                 (fun r ->
                   if r != r0 then r
                   else
                     {
                       r with
                       Schedule.r_start = r.Schedule.r_start -. delta;
                       r_finish = r.Schedule.r_finish -. delta;
                     })
                 replicas))
  in
  Option.map (with_replicas sched) edited

type tamper_case = {
  tc_seed : int;
  tc_algo : int;
  tc_model : Netstate.model;
  tc_defect : defect;
  tc_pick : int;
}

let tamper_case_gen =
  QCheck.Gen.(
    let* tc_model = oneofl models in
    let* tc_defect = oneofl (defects_for tc_model) in
    let* tc_seed = int_range 0 1_000_000 in
    let* tc_algo = int_range 0 3 in
    let+ tc_pick = int_range 0 1_000 in
    { tc_seed; tc_algo; tc_model; tc_defect; tc_pick })

let print_tamper_case c =
  Printf.sprintf "seed=%d algo=%s model=%s defect=%s pick=%d" c.tc_seed
    algo_names.(c.tc_algo)
    (Netstate.model_to_string c.tc_model)
    (defect_name c.tc_defect)
    c.tc_pick

let errors_as_violations findings =
  List.filter_map
    (fun f ->
      if f.Lint.f_severity = Lint.Error then
        Some (f.Lint.f_rule, f.Lint.f_msg, f.Lint.f_loc)
      else None)
    findings

let violations vs =
  List.map
    (fun v -> (v.Validate.check, v.Validate.detail, v.Validate.loc))
    vs

(* every injected defect is caught, and lint reports exactly the
   validator's violations, in its order *)
let prop_lint_is_validate =
  QCheck.Test.make ~count:200
    ~name:"lint errors = Validate.run violations on tampered schedules"
    (QCheck.make tamper_case_gen ~print:print_tamper_case)
    (fun c ->
      let sched =
        build_schedule ~algo:c.tc_algo ~model:c.tc_model ~seed:c.tc_seed
      in
      match tamper ~defect:c.tc_defect ~pick:c.tc_pick sched with
      | None ->
          QCheck.assume false;
          true
      | Some bad ->
          let vs = Validate.run bad in
          let findings = Lint.run bad in
          vs <> []
          && violations vs = errors_as_violations findings
          && Lint.errors findings = List.length vs)

let prop_untampered_clean =
  QCheck.Test.make ~count:40 ~name:"lint: no errors on untampered schedules"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 1_000_000) (int_range 0 3) (oneofl models))
       ~print:(fun (seed, algo, model) ->
         Printf.sprintf "seed=%d algo=%s model=%s" seed algo_names.(algo)
           (Netstate.model_to_string model)))
    (fun (seed, algo, model) ->
      Lint.errors (Lint.run (build_schedule ~algo ~model ~seed)) = 0)

(* -- combined report --------------------------------------------------- *)

let test_report_json_roundtrip () =
  let sched = tampered_fork () in
  let report = Analysis_report.analyze sched in
  Helpers.check_bool "not ok" false (Analysis_report.ok report);
  let str = Json.to_string (Analysis_report.to_json report) in
  let json = Json.parse_exn str in
  (* every finding carries rule id, severity and a structured location *)
  let findings = Json.to_list (Option.get (Json.member "findings" json)) in
  Helpers.check_int "finding count" (List.length report.Analysis_report.a_findings)
    (List.length findings);
  List.iter
    (fun f ->
      Helpers.check_bool "rule id" true
        (Json.to_str (Option.get (Json.member "rule" f)) <> None);
      let level = Json.to_str (Option.get (Json.member "level" f)) in
      Helpers.check_bool "level" true
        (List.mem level [ Some "error"; Some "warning"; Some "info" ]);
      match Json.member "location" f with
      | Some (Json.Obj fields) ->
          List.iter
            (fun key ->
              Helpers.check_bool ("location has " ^ key) true
                (List.mem_assoc key fields))
            [ "task"; "replica"; "proc"; "span" ]
      | _ -> Alcotest.fail "finding without structured location")
    findings;
  (* the embedded certificate parses and records the refutation *)
  let cert_json = Option.get (Json.member "certificate" json) in
  (match Certificate.of_json cert_json with
  | Ok c -> Helpers.check_bool "refutation recorded" false c.Certificate.c_resists
  | Error e -> Alcotest.fail e);
  (* the counterexample crash set is reported *)
  match Json.member "counterexample" json with
  | Some (Json.Obj _) -> ()
  | _ -> Alcotest.fail "expected a counterexample object"

let test_report_ok_on_valid () =
  let _, costs = Helpers.random_instance ~seed:21 ~m:5 ~tasks:15 () in
  let sched = Caft.run ~epsilon:1 costs in
  let report = Analysis_report.analyze sched in
  Helpers.check_bool "ok" true (Analysis_report.ok report);
  match report.Analysis_report.a_resilience with
  | Some r -> Helpers.check_bool "certified" true r.Resilience.rs_resists
  | None -> Alcotest.fail "expected a resilience report"

let suite =
  [
    Alcotest.test_case "fork DAGs: static = exhaustive replay (50 seeds)"
      `Quick test_fork_agreement;
    Alcotest.test_case "random DAGs: static = exhaustive replay" `Quick
      test_random_agreement;
    Alcotest.test_case "epsilon 2 and beyond-replication agreement" `Quick
      test_epsilon2_agreement;
    Alcotest.test_case "refutes unreplicated schedules" `Quick
      test_refutes_unreplicated;
    Alcotest.test_case "tampered schedule yields a confirmed counterexample"
      `Quick test_tampered_counterexample;
    Alcotest.test_case "survivors relation matches replay" `Quick
      test_survivors_matches_replay;
    Alcotest.test_case "parallel certification matches sequential" `Quick
      test_parallel_certification;
    Alcotest.test_case "certificate JSON roundtrip and re-verification"
      `Quick test_certificate_roundtrip;
    Alcotest.test_case "certificate of a refuted schedule" `Quick
      test_certificate_of_refuted;
  ]
  @ List.map
      (fun (name, top, verdict) ->
        Alcotest.test_case ("cert JSON: " ^ name) `Quick
          (test_certificate_malformed (top, verdict)))
      malformed_certificates
  @ [
    Alcotest.test_case "mapping: fork is one-to-one within linear bound"
      `Quick test_mapping_fork_one_to_one;
    Alcotest.test_case "mapping: fallback and invalid joins" `Quick
      test_mapping_fallback_and_invalid;
    Alcotest.test_case "lint: clean schedule has no errors" `Quick
      test_lint_clean_schedule;
    Alcotest.test_case "lint: granularity smell" `Quick test_lint_granularity;
    Alcotest.test_case "lint: tampered schedule findings" `Quick
      test_lint_tampered;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 200_020 |])
      prop_lint_is_validate;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 200_021 |])
      prop_untampered_clean;
    Alcotest.test_case "report JSON roundtrip with locations" `Quick
      test_report_json_roundtrip;
    Alcotest.test_case "report ok on a valid schedule" `Quick
      test_report_ok_on_valid;
  ]
