(* sched_large: [Caft.run] at epsilon = 1, one-port, m = 100, on staged
   and pipelines DAGs of 2500 tasks, on one domain.  The placement's
   per-candidate cost over m dominates; staged stresses wide fan-in
   joins, pipelines stresses chains where stage-0 pruning rejects most
   candidates.  No replay.

   The time of one run depends on its random costs, so an iteration
   schedules [copies] instances of each family: a seed's figure is then a
   sum over six draws, which varies far less from seed to seed. *)

open Common

let tasks = 2_500
let copies = 6
let m = 100
let epsilon = 1
let families = [ "staged"; "pipelines" ]

let make_instances seed =
  let rng = Rng.create seed in
  List.concat_map
    (fun family ->
      List.init copies (fun c ->
          let iseed = Rng.int rng 1_000_000_000 in
          match Instance.make ~seed:iseed ~family ~tasks ~m ~granularity:1.0 () with
          | Ok (dag, costs) -> (family, c, dag, costs)
          | Error e -> failwith e))
    families

let caft_phases = [ "caft.priorities"; "caft.place"; "caft.freeze" ]

let run args o =
  let setups = List.init 3 (fun _ -> time (fun () -> make_instances args.seed)) in
  let instances = fst (List.hd setups) in
  let setup_s = median (List.map snd setups) in
  let placed = ref 0 and placing_s = ref 0. in
  let walls = Hashtbl.create 2 in
  let plain_walls = ref [] and traced_walls = ref [] and n_traced = ref 0 in
  let edges_total =
    List.fold_left (fun acc (_, _, dag, _) -> acc + Dag.edge_count dag) 0 instances
  in
  (* One operation per [Caft.run].  Validation and the printed digest cost
     more than the run itself: full checks on the first iteration, a
     summary of the schedule on the others. *)
  let check ~full results =
    List.iter
      (fun (family, c, _, sched, _) ->
        let name = Printf.sprintf "%s.%d" family c in
        operation o (fun () ->
            match sched with
            | Error e -> [ name ^ ": " ^ e ]
            | Ok sched ->
                let summary =
                  Printf.sprintf "%h;%h;%d" (Schedule.latency_zero_crash sched)
                    (Schedule.latency_upper_bound sched)
                    (Schedule.message_count sched)
                in
                check_digest args o ~key:(name ^ ".summary") summary
                @
                if not full then []
                else
                  (if Validate.is_valid sched then []
                   else [ name ^ ": schedule fails validation" ])
                  @ check_digest args o ~key:name (md5 (Schedule_io.to_string sched))))
      results
  in
  repeat args (fun i ->
      let traced = traced args i in
      if traced then begin
        obs_on ~prof:true;
        Span.start ()
      end;
      let results, wall =
        time (fun () ->
            Span.within Span.root (fun () ->
                List.map
                  (fun (family, c, dag, costs) ->
                    let g0 = Gc.quick_stat () in
                    let sched, dt =
                      time (fun () ->
                          Span.within ("core.caft.run." ^ family) (fun () ->
                              try Ok (Caft.run ~epsilon costs)
                              with e -> Error (Printexc.to_string e)))
                    in
                    let g1 = Gc.quick_stat () in
                    if traced then begin
                      add "core.caft.minor_words"
                        (g1.Gc.minor_words -. g0.Gc.minor_words);
                      add "core.caft.major_collections"
                        (float_of_int
                           (g1.Gc.major_collections - g0.Gc.major_collections))
                    end;
                    (family, c, dag, sched, dt))
                  instances))
      in
      Span.stop ();
      obs_off ();
      if traced then begin
        incr n_traced;
        traced_walls := wall :: !traced_walls;
        List.iter
          (fun c -> add ("core." ^ c) (counter c))
          [
            "caft.candidates_evaluated"; "caft.candidates_pruned";
            "caft.one_to_one"; "caft.full_replication";
          ];
        add "sched.net.messages_remote" (counter "net.messages.remote");
        List.iter
          (fun (p : Obs.Prof.phase_stat) ->
            if List.mem p.ph_name caft_phases then
              add ("core." ^ p.ph_name ^ "_s") p.ph_self_s)
          (Obs.Prof.report ()).r_phases
      end
      else plain_walls := wall :: !plain_walls;
      List.iter
        (fun (family, _, dag, sched, dt) ->
          if Result.is_ok sched && not traced then begin
            placed := !placed + Dag.task_count dag;
            placing_s := !placing_s +. dt;
            Hashtbl.replace walls (family, i)
              (dt +. Option.value ~default:0. (Hashtbl.find_opt walls (family, i)))
          end)
        results;
      check ~full:(i = 0) results;
      if traced then begin
        (* every scheduled input is either one-to-one or fully replicated *)
        let inputs = tallied "core.caft.one_to_one" +. tallied "core.caft.full_replication" in
        let want = float_of_int (!n_traced * edges_total * (epsilon + 1)) in
        if inputs <> want then
          operation o (fun () ->
              [ Printf.sprintf "caft inputs %.0f, expected e(eps+1) = %.0f" inputs want ])
      end;
      wall);
  e2e o "setup_s" setup_s;
  e2e o "throughput_per_s" (float_of_int !placed /. !placing_s);
  (* per iteration, the family's six runs together *)
  let wall family =
    Hashtbl.fold (fun (f, _) dt acc -> if f = family then dt :: acc else acc) walls []
  in
  e2e o "op_a_ms" (1000. *. median (wall "staged"));
  e2e o "op_b_ms" (1000. *. median (wall "pipelines"));
  if args.trace then begin
    let n = float_of_int !n_traced in
    let spans = Span.spans () in
    List.iter
      (fun family ->
        layer o ("core.caft.run_s." ^ family)
          (Span.total ("core.caft.run." ^ family) spans /. n))
      families;
    List.iter
      (fun k -> layer o k (tallied k /. n))
      [
        "core.caft.priorities_s"; "core.caft.place_s"; "core.caft.freeze_s";
        "core.caft.candidates_evaluated"; "core.caft.candidates_pruned";
        "core.caft.one_to_one"; "core.caft.full_replication";
        "sched.net.messages_remote"; "core.caft.major_collections";
      ];
    let evaluated = tallied "core.caft.candidates_evaluated"
    and pruned = tallied "core.caft.candidates_pruned" in
    layer o "core.caft.prune_ratio" (pruned /. (evaluated +. pruned));
    layer o "core.caft.minor_words_per_task"
      (tallied "core.caft.minor_words"
      /. (n *. float_of_int (List.fold_left (fun acc (_, _, dag, _) -> acc + Dag.task_count dag) 0 instances)));
    let run_s =
      List.fold_left
        (fun acc f -> acc +. Span.total ("core.caft.run." ^ f) spans)
        0. families
    in
    layer o "core.caft.phase_coverage"
      (List.fold_left (fun acc p -> acc +. tallied ("core." ^ p ^ "_s")) 0. caft_phases
      /. run_s);
    layer o "workload.instance_s" setup_s;
    layer o "trace.coverage" (Span.coverage spans);
    layer o "trace.overhead_frac"
      (overhead ~traced_walls:!traced_walls ~plain_walls:!plain_walls)
  end
