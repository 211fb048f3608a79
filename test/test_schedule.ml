(* Unit tests for the schedule representation and its shape checks. *)

let mk_replica ?(inputs = []) ~task ~index ~proc ~start ~finish () =
  {
    Schedule.r_task = task;
    r_index = index;
    r_proc = proc;
    r_start = start;
    r_finish = finish;
    r_inputs = inputs;
  }

(* a valid hand-made 1-fault-tolerant schedule of the chain 0 -> 1 *)
let two_task_sched () =
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 10.) ] () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let msg ~sproc ~sfinish ~dst ~arrival =
    Schedule.Message
      {
        Netstate.m_source =
          {
            Netstate.s_task = 0;
            s_replica = (if sproc = 0 then 0 else 1);
            s_proc = sproc;
            s_finish = sfinish;
            s_volume = 10.;
          };
        m_dst_proc = dst;
        m_duration = 10.;
        m_leg_start = arrival -. 10.;
        m_leg_finish = arrival;
        m_arrival = arrival;
      }
  in
  let replicas =
    [
      mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
      mk_replica ~task:0 ~index:1 ~proc:1 ~start:0. ~finish:5. ();
      mk_replica ~task:1 ~index:0 ~proc:0 ~start:5. ~finish:10.
        ~inputs:
          [ Schedule.Local { l_pred = 0; l_pred_replica = 0; l_finish = 5. } ]
        ();
      mk_replica ~task:1 ~index:1 ~proc:2 ~start:15. ~finish:20.
        ~inputs:[ msg ~sproc:1 ~sfinish:5. ~dst:2 ~arrival:15. ]
        ();
    ]
  in
  Schedule.create ~algorithm:"hand" ~epsilon:1 ~model:Netstate.One_port ~costs
    replicas

let test_accessors () =
  let s = two_task_sched () in
  Helpers.check_int "epsilon" 1 (Schedule.epsilon s);
  Helpers.check_bool "algorithm" true (Schedule.algorithm s = "hand");
  Helpers.check_int "replicas of task 0" 2 (Array.length (Schedule.replicas s 0));
  Helpers.check_int "all replicas" 4 (List.length (Schedule.all_replicas s));
  Helpers.check_int "messages" 1 (Schedule.message_count s);
  Helpers.check_int "messages list" 1 (List.length (Schedule.messages s));
  let on0 = Schedule.on_proc s 0 in
  Helpers.check_int "two replicas on P0" 2 (List.length on0);
  Helpers.check_bool "sorted by start" true
    ((List.nth on0 0).Schedule.r_start <= (List.nth on0 1).Schedule.r_start);
  Helpers.check_int "nothing beyond" 1 (List.length (Schedule.on_proc s 2))

let test_latencies () =
  let s = two_task_sched () in
  (* task 0 first replica finish 5; task 1 first finish 10 -> L0 = 10 *)
  Helpers.check_float "zero-crash latency" 10. (Schedule.latency_zero_crash s);
  (* last replicas: 5 and 20 -> UB = 20 *)
  Helpers.check_float "upper bound" 20. (Schedule.latency_upper_bound s);
  Helpers.check_float "makespan" 20. (Schedule.makespan s)

let test_shape_violations () =
  let dag = Dag.make ~n:1 ~edges:[] () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let mk = mk_replica ~task:0 in
  (* missing replica *)
  (try
     ignore
       (Schedule.create ~algorithm:"x" ~epsilon:1 ~model:Netstate.One_port
          ~costs
          [ mk ~index:0 ~proc:0 ~start:0. ~finish:5. () ]);
     Alcotest.fail "missing replica accepted"
   with Invalid_argument _ -> ());
  (* same processor twice *)
  (try
     ignore
       (Schedule.create ~algorithm:"x" ~epsilon:1 ~model:Netstate.One_port
          ~costs
          [
            mk ~index:0 ~proc:0 ~start:0. ~finish:5. ();
            mk ~index:1 ~proc:0 ~start:5. ~finish:10. ();
          ]);
     Alcotest.fail "shared processor accepted"
   with Invalid_argument _ -> ());
  (* bad replica index *)
  (try
     ignore
       (Schedule.create ~algorithm:"x" ~epsilon:1 ~model:Netstate.One_port
          ~costs
          [
            mk ~index:0 ~proc:0 ~start:0. ~finish:5. ();
            mk ~index:2 ~proc:1 ~start:0. ~finish:5. ();
          ]);
     Alcotest.fail "bad index accepted"
   with Invalid_argument _ -> ())

let test_validate_accepts_hand_schedule () =
  let s = two_task_sched () in
  match Validate.run s with
  | [] -> ()
  | vs ->
      Alcotest.failf "expected valid, got:\n%s"
        (String.concat "\n"
           (List.map (fun v -> Format.asprintf "%a" Validate.pp_violation v) vs))

let has_check checks vs =
  List.exists (fun v -> List.mem v.Validate.check checks) vs

let test_validate_catches_overlap () =
  (* two tasks overlapping on one processor *)
  let dag = Dag.make ~n:2 ~edges:[] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let s =
    Schedule.create ~algorithm:"bad" ~epsilon:0 ~model:Netstate.One_port ~costs
      [
        mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
        mk_replica ~task:1 ~index:0 ~proc:0 ~start:3. ~finish:8. ();
      ]
  in
  Helpers.check_bool "proc overlap caught" true
    (has_check [ "proc-exclusive" ] (Validate.run s))

let test_validate_catches_missing_input () =
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 1.) ] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let s =
    Schedule.create ~algorithm:"bad" ~epsilon:0 ~model:Netstate.One_port ~costs
      [
        mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
        mk_replica ~task:1 ~index:0 ~proc:1 ~start:5. ~finish:10. ();
      ]
  in
  Helpers.check_bool "missing input caught" true
    (has_check [ "missing-input" ] (Validate.run s))

let test_validate_catches_precedence () =
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 1.) ] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  (* local supply arrives at 5 but consumer starts at 2 *)
  let s =
    Schedule.create ~algorithm:"bad" ~epsilon:0 ~model:Netstate.One_port ~costs
      [
        mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
        mk_replica ~task:1 ~index:0 ~proc:0 ~start:2. ~finish:7.
          ~inputs:
            [ Schedule.Local { l_pred = 0; l_pred_replica = 0; l_finish = 5. } ]
          ();
      ]
  in
  let vs = Validate.run s in
  Helpers.check_bool "precedence caught" true
    (has_check [ "precedence"; "proc-exclusive" ] vs)

let test_validate_catches_duration () =
  let dag = Dag.make ~n:1 ~edges:[] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let s =
    Schedule.create ~algorithm:"bad" ~epsilon:0 ~model:Netstate.One_port ~costs
      [ mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:99. () ]
  in
  Helpers.check_bool "duration caught" true
    (has_check [ "duration" ] (Validate.run s))

let test_validate_catches_one_port_violation () =
  (* two messages into P2 with overlapping reception windows *)
  let dag = Dag.make ~n:3 ~edges:[ (0, 2, 10.); (1, 2, 10.) ] () in
  let platform = Helpers.uniform_platform 3 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let msg sproc sidx arrival =
    Schedule.Message
      {
        Netstate.m_source =
          {
            Netstate.s_task = sidx;
            s_replica = 0;
            s_proc = sproc;
            s_finish = 5.;
            s_volume = 10.;
          };
        m_dst_proc = 2;
        m_duration = 10.;
        m_leg_start = 5.;
        m_leg_finish = 15.;
        m_arrival = arrival;
      }
  in
  let s =
    Schedule.create ~algorithm:"bad" ~epsilon:0 ~model:Netstate.One_port ~costs
      [
        mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
        mk_replica ~task:1 ~index:0 ~proc:1 ~start:0. ~finish:5. ();
        mk_replica ~task:2 ~index:0 ~proc:2 ~start:18. ~finish:23.
          ~inputs:[ msg 0 0 15.; msg 1 1 18. ]
          ();
      ]
  in
  Helpers.check_bool "receive overlap caught" true
    (has_check [ "one-port-recv" ] (Validate.run s));
  (* the same schedule under macro-dataflow rules is fine *)
  let s_macro =
    Schedule.create ~algorithm:"ok" ~epsilon:0 ~model:Netstate.Macro_dataflow
      ~costs
      (Schedule.all_replicas s)
  in
  Helpers.check_bool "macro model skips port checks" false
    (has_check [ "one-port-recv" ] (Validate.run s_macro))

let test_validate_catches_causality () =
  (* message leaves before its source finishes *)
  let dag = Dag.make ~n:2 ~edges:[ (0, 1, 10.) ] () in
  let platform = Helpers.uniform_platform 2 in
  let costs = Helpers.flat_costs ~c:5. dag platform in
  let s =
    Schedule.create ~algorithm:"bad" ~epsilon:0 ~model:Netstate.One_port ~costs
      [
        mk_replica ~task:0 ~index:0 ~proc:0 ~start:0. ~finish:5. ();
        mk_replica ~task:1 ~index:0 ~proc:1 ~start:12. ~finish:17.
          ~inputs:
            [
              Schedule.Message
                {
                  Netstate.m_source =
                    {
                      Netstate.s_task = 0;
                      s_replica = 0;
                      s_proc = 0;
                      s_finish = 5.;
                      s_volume = 10.;
                    };
                  m_dst_proc = 1;
                  m_duration = 10.;
                  m_leg_start = 2.;
                  m_leg_finish = 12.;
                  m_arrival = 12.;
                };
            ]
          ();
      ]
  in
  Helpers.check_bool "causality caught" true
    (has_check [ "message-causality" ] (Validate.run s))

(* -- schedule files the validator must not accept ------------------------ *)

(* [costs] over the same graph with task names that are not one word:
   spaced, empty, starting with a quote, or holding a tab and a newline —
   the names the schedule file writes quoted. *)
let with_odd_names costs =
  let dag = Costs.dag costs in
  let edges = ref [] in
  Dag.iter_edges (fun src dst vol -> edges := (src, dst, vol) :: !edges) dag;
  let n = Dag.task_count dag in
  let names =
    Array.init n (fun t ->
        match t mod 4 with
        | 0 -> Printf.sprintf "task %d" t
        | 1 -> ""
        | 2 -> Printf.sprintf "\"q%d" t
        | _ -> Printf.sprintf "tab\t%d\n" t)
  in
  let dag = Dag.make ~names ~n ~edges:(List.rev !edges) () in
  (dag, Costs.create dag (Costs.platform costs) (Costs.exec costs))

(* Saved 8-task CAFT and FTSA schedules (m = 4, epsilon = 1), as lines
   of a file that carries their platform's routes: six one-port
   schedules on the clique, then two each under macro-dataflow, under
   multiport-2 and one-port over a ring, one one-port schedule whose
   task names are not one word, and one one-port schedule each over a
   star and a 2x2 torus. *)
let fuzz_bases =
  lazy
    (List.map
       (fun (seed, model, topology, odd_names) ->
         let dag, costs = Helpers.random_instance ~seed ~m:4 ~tasks:8 () in
         let dag, costs =
           if odd_names then with_odd_names costs else (dag, costs)
         in
         let costs =
           match topology with
           | None -> costs
           | Some topo ->
               Costs.create dag (Topology.platform topo) (Costs.exec costs)
         in
         let sched =
           if seed mod 2 = 0 then Caft.run ~model ~epsilon:1 costs
           else Ftsa.run ~model ~epsilon:1 costs
         in
         Array.of_list
           (List.filter (fun l -> l <> "")
              (String.split_on_char '\n' (Schedule_io.to_string sched))))
       (List.init 6 (fun seed -> (seed, Netstate.One_port, None, false))
       @ [
           (6, Netstate.Macro_dataflow, None, false);
           (7, Netstate.Macro_dataflow, None, false);
           (8, Netstate.Multiport 2, None, false);
           (9, Netstate.Multiport 2, None, false);
           (10, Netstate.One_port, Some (Topology.ring 4), false);
           (11, Netstate.One_port, Some (Topology.ring 4), false);
           (12, Netstate.One_port, None, true);
           (13, Netstate.One_port, Some (Topology.star 4), false);
           ( 14,
             Netstate.One_port,
             Some (Topology.torus2d ~rows:2 ~cols:2 ()),
             false );
         ]))

let words l = Array.of_list (String.split_on_char ' ' l)
let unwords a = String.concat " " (Array.to_list a)
let unlines lines = String.concat "\n" (Array.to_list lines) ^ "\n"

(* [lines] with word [field] of line [i] (0-based) set to [v] *)
let set_word lines i field v =
  Array.mapi
    (fun j l ->
      if j <> i then l
      else
        let w = words l in
        w.(field) <- v;
        unwords w)
    lines

let is_directive d l = String.starts_with ~prefix:(d ^ " ") l

(* The shapes a line-level mutation fuzzer found accepted by the
   validator although replay rejects them as cyclic: a message leg start
   of 1e308 or inf, and an infinite arrival hidden behind another supply
   of the same predecessor.  The validator (hence lint) rejects each. *)
let test_validate_catches_message_times () =
  let lines = List.hd (Lazy.force fuzz_bases) in
  let reject name text wants =
    let sched = Schedule_io.of_string text in
    let vs = Validate.run sched in
    List.iter
      (fun want ->
        Helpers.check_bool (name ^ ": " ^ want) true (has_check [ want ] vs))
      wants;
    Helpers.check_bool (name ^ ": lint errors") true
      (Lint.errors (Lint.run sched) > 0)
  in
  let first d =
    let rec go i = if is_directive d lines.(i) then i else go (i + 1) in
    go 0
  in
  (* message task idx pred pidx sproc sfinish volume dst dur lstart lfinish
     arrival *)
  let msg = first "message" in
  let huge = unlines (set_word lines msg 10 "1e308") in
  reject "leg start 1e308" huge [ "message-leg" ];
  (* its lint line prints the time as 1e+308, not as 309 digits *)
  List.iter
    (fun f ->
      let line = Format.asprintf "%a" Lint.pp_finding f in
      Helpers.check_bool ("lint line under 200 characters: " ^ line) true
        (String.length line < 200))
    (Lint.run (Schedule_io.of_string huge));
  reject "leg start inf"
    (unlines (set_word lines msg 10 "inf"))
    [ "non-finite-time"; "message-leg" ];
  (* a replica fed twice by one predecessor: the later supply's infinite
     arrival does not move the earliest one, so only the finiteness rule
     sees it *)
  let key l =
    let w = words l in
    (w.(1), w.(2), w.(3))
  in
  let msgs =
    List.filter
      (fun (_, l) -> is_directive "message" l)
      (List.mapi (fun i l -> (i, l)) (Array.to_list lines))
  in
  let twice =
    List.find
      (fun (i, l) -> List.exists (fun (j, l') -> j < i && key l' = key l) msgs)
      msgs
  in
  let arrival = unlines (set_word lines (fst twice) 12 "inf") in
  let vs = Validate.run (Schedule_io.of_string arrival) in
  Helpers.check_bool "hidden arrival inf: non-finite-time" true
    (has_check [ "non-finite-time" ] vs);
  Helpers.check_bool "hidden arrival inf: precedence holds" false
    (has_check [ "precedence" ] vs);
  (* a replica that runs forever *)
  reject "replica finish inf"
    (unlines (set_word lines (first "replica") 5 "inf"))
    [ "non-finite-time" ]

(* One mutation of a saved schedule file: a token replaced, a line dropped
   or a line duplicated. *)
type mutant = {
  base : int;
  line : int;
  kind : int;  (* 0: drop the line, 1: duplicate it, else edit a token *)
  field : int;
  token : string;
}

let tokens =
  [
    "-1"; "0"; "1"; "2"; "99"; "0.5"; "inf"; "-inf"; "nan"; "1e308";
    "387.0205E986927234";
  ]

let mutant_gen =
  QCheck.Gen.(
    map
      (fun ((base, line, kind), (field, token)) ->
        { base; line; kind; field; token })
      (pair
         (triple (int_bound 14) (int_bound 10_000) (int_bound 9))
         (pair (int_bound 12) (oneofl tokens))))

let mutate { base; line; kind; field; token } =
  let lines = List.nth (Lazy.force fuzz_bases) base in
  let i = line mod Array.length lines in
  let l = Array.to_list lines in
  match kind with
  | 0 -> List.filteri (fun j _ -> j <> i) l
  | 1 -> List.concat (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) l)
  | _ ->
      let n = Array.length (words lines.(i)) in
      if n < 2 then l
      else Array.to_list (set_word lines i (1 + (field mod (n - 1))) token)

let print_mutant m =
  Printf.sprintf "base=%d line=%d kind=%d field=%d token=%s" m.base m.line
    m.kind m.field m.token

(* Whatever a mutated file holds, parsing raises nothing but
   [Parse_error], and a schedule the validator accepts (over the routes
   its file carries) also compiles, completes its fault-free replay and
   prints to text that parses back to the same text. *)
let prop_accepted_mutants_replay =
  QCheck.Test.make ~count:3000
    ~name:"validator-accepted schedule mutants compile and replay"
    (QCheck.make mutant_gen ~print:print_mutant)
    (fun m ->
      match Schedule_io.of_string (String.concat "\n" (mutate m) ^ "\n") with
      | exception Schedule_io.Parse_error _ -> true
      | sched ->
          Validate.run sched <> []
          || (Replay.fault_free sched).Replay.completed
             &&
             let text = Schedule_io.to_string sched in
             String.equal text
               (Schedule_io.to_string (Schedule_io.of_string text)))

(* The property has teeth on every base only if the unmutated file is
   accepted over its routes and replays. *)
let test_fuzz_bases_valid () =
  List.iteri
    (fun i lines ->
      let sched = Schedule_io.of_string (unlines lines) in
      Helpers.check_bool (Printf.sprintf "base %d valid" i) true
        (Validate.run sched = []);
      Helpers.check_bool (Printf.sprintf "base %d replays" i) true
        (Replay.fault_free sched).Replay.completed)
    (Lazy.force fuzz_bases)

let test_gantt_renders () =
  let _, costs = Helpers.random_instance ~seed:3 () in
  let sched = Caft.run ~epsilon:1 costs in
  let g = Gantt.render ~width:60 sched in
  Helpers.check_bool "gantt non-empty" true (String.length g > 100);
  let g2 = Gantt.render ~width:60 ~show_comm:true sched in
  Helpers.check_bool "comm rows add length" true
    (String.length g2 > String.length g)

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "latencies" `Quick test_latencies;
    Alcotest.test_case "shape violations" `Quick test_shape_violations;
    Alcotest.test_case "validator accepts valid" `Quick
      test_validate_accepts_hand_schedule;
    Alcotest.test_case "validator: proc overlap" `Quick
      test_validate_catches_overlap;
    Alcotest.test_case "validator: missing input" `Quick
      test_validate_catches_missing_input;
    Alcotest.test_case "validator: precedence" `Quick
      test_validate_catches_precedence;
    Alcotest.test_case "validator: duration" `Quick test_validate_catches_duration;
    Alcotest.test_case "validator: one-port receive" `Quick
      test_validate_catches_one_port_violation;
    Alcotest.test_case "validator: message causality" `Quick
      test_validate_catches_causality;
    Alcotest.test_case "validator: message times" `Quick
      test_validate_catches_message_times;
    Alcotest.test_case "fuzz bases valid over their fabrics" `Quick
      test_fuzz_bases_valid;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 230_023 |])
      prop_accepted_mutants_replay;
    Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
  ]
