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

let suite =
  [
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 280_001 |])
      prop_certify_matches_oracle;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 280_002 |])
      prop_three_verdicts_agree;
  ]
