type t = {
  a_schedule : Schedule.t;
  a_epsilon : int;
  a_resilience : Resilience.report option;
  a_certificate : Certificate.t option;
  a_mapping : Mapping.report;
  a_findings : Lint.finding list;
}

let analyze ?epsilon ?domains sched =
  let epsilon =
    match epsilon with Some e -> e | None -> Schedule.epsilon sched
  in
  let resilience =
    match Resilience.certify ~epsilon ?domains sched with
    | report -> Some report
    | exception Resilience.Family_overflow _ -> None
  in
  let certificate =
    Option.map (fun r -> Certificate.of_report sched r) resilience
  in
  {
    a_schedule = sched;
    a_epsilon = epsilon;
    a_resilience = resilience;
    a_certificate = certificate;
    a_mapping = Mapping.verify sched;
    a_findings = Lint.run sched;
  }

let ok t =
  (match t.a_resilience with
  | Some r -> r.Resilience.rs_resists
  | None -> true)
  && Lint.errors t.a_findings = 0

(* -- JSON -------------------------------------------------------------- *)

let location_to_json (l : Validate.location) =
  let open Json in
  Obj
    [
      ("task", match l.Validate.l_task with Some t -> Int t | None -> Null);
      ( "replica",
        match l.Validate.l_replica with Some i -> Int i | None -> Null );
      ("proc", match l.Validate.l_proc with Some p -> Int p | None -> Null);
      ( "span",
        match l.Validate.l_span with
        | Some (s, f) -> List [ Float s; Float f ]
        | None -> Null );
    ]

let finding_to_json (f : Lint.finding) =
  Json.Obj
    [
      ("rule", Json.String f.Lint.f_rule);
      ("level", Json.String (Lint.severity_to_string f.Lint.f_severity));
      ("message", Json.String f.Lint.f_msg);
      ("location", location_to_json f.Lint.f_loc);
    ]

let mapping_to_json (m : Mapping.report) =
  let open Json in
  Obj
    [
      ("epsilon", Int m.Mapping.mp_epsilon);
      ("out_forest", Bool m.Mapping.mp_out_forest);
      ("total_messages", Int m.Mapping.mp_total_messages);
      ("linear_bound", Int m.Mapping.mp_linear_bound);
      ("quadratic_bound", Int m.Mapping.mp_quadratic_bound);
      ("all_one_to_one", Bool m.Mapping.mp_all_one_to_one);
      ("within_linear", Bool m.Mapping.mp_within_linear);
      ("within_quadratic", Bool m.Mapping.mp_within_quadratic);
      ( "joins",
        List
          (Array.to_list m.Mapping.mp_joins
          |> List.map (fun (j : Mapping.join) ->
                 Obj
                   [
                     ("pred", Int j.Mapping.jn_pred);
                     ("succ", Int j.Mapping.jn_succ);
                     ( "class",
                       String (Mapping.class_to_string j.Mapping.jn_class) );
                     ("messages", Int j.Mapping.jn_messages);
                   ])) );
    ]

let to_json t =
  let open Json in
  let sched = t.a_schedule in
  Obj
    [
      ( "schedule",
        Obj
          [
            ("algorithm", String (Schedule.algorithm sched));
            ("tasks", Int (Dag.task_count (Schedule.dag sched)));
            ( "processors",
              Int (Platform.proc_count (Schedule.platform sched)) );
            ("epsilon", Int (Schedule.epsilon sched));
            ("model", String (Netstate.model_to_string (Schedule.model sched)));
            ("messages", Int (Schedule.message_count sched));
            ("latency_zero_crash", Float (Schedule.latency_zero_crash sched));
            ("latency_upper_bound", Float (Schedule.latency_upper_bound sched));
          ] );
      ("epsilon", Int t.a_epsilon);
      ( "certificate",
        match t.a_certificate with
        | Some c -> Certificate.to_json c
        | None -> Null );
      ( "counterexample",
        match t.a_resilience with
        | Some { Resilience.rs_counterexample = Some (crashed, starved); _ } ->
            Obj
              [
                ("crash", List (List.map (fun p -> Int p) crashed));
                ("starves", List (List.map (fun task -> Int task) starved));
              ]
        | _ -> Null );
      ("mapping", mapping_to_json t.a_mapping);
      ("findings", List (List.map finding_to_json t.a_findings));
    ]

(* -- text -------------------------------------------------------------- *)

let pp ppf t =
  let sched = t.a_schedule in
  Format.fprintf ppf "analysis of %s schedule: %d tasks x %d replicas on %d processors (%s model)@,"
    (Schedule.algorithm sched)
    (Dag.task_count (Schedule.dag sched))
    (Schedule.epsilon sched + 1)
    (Platform.proc_count (Schedule.platform sched))
    (Netstate.model_to_string (Schedule.model sched));
  (match t.a_resilience with
  | None ->
      Format.fprintf ppf
        "resistance: inconclusive (kill-set families overflowed) — fall back \
         to `ftsched check`@,"
  | Some r -> (
      match r.Resilience.rs_counterexample with
      | None ->
          let disjoint =
            Array.fold_left
              (fun acc v ->
                match v with
                | Resilience.Certified (Resilience.Disjoint_supports _) ->
                    acc + 1
                | _ -> acc)
              0 r.Resilience.rs_tasks
          in
          let total = Array.length r.Resilience.rs_tasks in
          Format.fprintf ppf
            "resistance: certified for epsilon=%d with zero replays (%d/%d \
             tasks by disjoint supports, %d by min-cut)@,"
            r.Resilience.rs_epsilon disjoint total (total - disjoint)
      | Some (crashed, starved) ->
          Format.fprintf ppf
            "resistance: REFUTED for epsilon=%d — crash {%s} starves tasks \
             {%s}@,"
            r.Resilience.rs_epsilon
            (String.concat "," (List.map string_of_int crashed))
            (String.concat "," (List.map string_of_int starved))));
  let m = t.a_mapping in
  Format.fprintf ppf
    "mapping: %d/%d joins one-to-one (%d fallback, %d mixed, %d invalid), %d \
     messages, bounds: e(eps+1)=%d %s, e(eps+1)^2=%d %s@,"
    (Mapping.count m Mapping.One_to_one)
    (Array.length m.Mapping.mp_joins)
    (Mapping.count m Mapping.Fallback)
    (Mapping.count m Mapping.Mixed)
    (Mapping.count m Mapping.Invalid)
    m.Mapping.mp_total_messages m.Mapping.mp_linear_bound
    (if m.Mapping.mp_within_linear then "ok" else "exceeded")
    m.Mapping.mp_quadratic_bound
    (if m.Mapping.mp_within_quadratic then "ok" else "EXCEEDED");
  let count sev =
    List.length (List.filter (fun f -> f.Lint.f_severity = sev) t.a_findings)
  in
  Format.fprintf ppf "lint: %d errors, %d warnings, %d info@,"
    (count Lint.Error) (count Lint.Warning) (count Lint.Info);
  List.iter
    (fun f -> Format.fprintf ppf "  %a@," Lint.pp_finding f)
    t.a_findings
