let run ?(model = Netstate.One_port) ?(seed = 42) ~epsilon costs =
  let ws = Workspace.create ~model ~epsilon costs in
  let net = Workspace.net ws in
  let dag = Workspace.dag ws in
  let m = Platform.proc_count (Workspace.platform ws) in
  let rng = Rng.create seed in
  let n = Dag.task_count dag in
  let levels = Levels.compute costs in
  let cp = Levels.critical_path levels in
  (* Latest start time, bottom-up: how late the task may start without
     stretching the (average-weighted) critical path. *)
  let latest_start t = cp -. Levels.bottom_level levels t in
  let tiebreak = Array.init n (fun _ -> Rng.float rng 1.0) in
  let unscheduled_preds = Array.init n (fun t -> Dag.in_degree dag t) in
  (* A free task's sources never change until it is scheduled, so each is
     loaded once, when the task becomes free, and probed at every step. *)
  let released = Netstate.create_sources () in
  let sources = Array.make n released in
  let make_free task =
    let src = Netstate.create_sources () in
    Workspace.load_sources ws src task;
    sources.(task) <- src
  in
  let free = ref (Dag.entries dag) in
  List.iter make_free !free;
  let remaining = ref n in
  (* R^(n-1): current schedule length. *)
  let schedule_length = ref 0. in
  let sigma = Array.make m 0. in
  let rank = Array.make m 0 in
  let by_sigma a b =
    let c = Float.compare sigma.(a) sigma.(b) in
    if c <> 0 then c else Int.compare a b
  in
  let chosen_procs = Array.make (epsilon + 1) 0 in
  while !remaining > 0 do
    (match !free with
    | [] -> failwith "Ftbar.run: no free task but tasks remain"
    | _ -> ());
    (* Evaluate the pressure of every free task on every processor and
       keep the most urgent task: the largest pressure within its
       epsilon+1 best processors, ties to the smaller random tiebreak. *)
    let chosen_task = ref (-1) and chosen_urgency = ref neg_infinity in
    List.iter
      (fun task ->
        for p = 0 to m - 1 do
          let b_start, _ =
            Netstate.probe net sources.(task) ~colocate_exclusive:true ~proc:p
              ~exec:(Costs.exec costs task p)
          in
          sigma.(p) <- b_start +. latest_start task -. !schedule_length;
          rank.(p) <- p
        done;
        Array.sort by_sigma rank;
        let urgency = ref neg_infinity in
        for i = 0 to epsilon do
          urgency := Float.max !urgency sigma.(rank.(i))
        done;
        if
          !chosen_task < 0
          || !urgency > !chosen_urgency
          || (!urgency = !chosen_urgency
             && tiebreak.(task) < tiebreak.(!chosen_task))
        then begin
          chosen_task := task;
          chosen_urgency := !urgency;
          Array.blit rank 0 chosen_procs 0 (epsilon + 1)
        end)
      !free;
    let chosen_task = !chosen_task in
    (* Commit the replicas on the evolving state, best processor first. *)
    Array.iter
      (fun p ->
        let booked =
          Netstate.commit net sources.(chosen_task) ~colocate_exclusive:true
            ~proc:p ~exec:(Costs.exec costs chosen_task p)
        in
        let r = Workspace.place ws ~task:chosen_task ~proc:p booked in
        schedule_length := Float.max !schedule_length r.Schedule.r_finish)
      chosen_procs;
    sources.(chosen_task) <- released;
    (* Update the free list. *)
    free := List.filter (fun t -> t <> chosen_task) !free;
    Array.iter
      (fun (succ, _) ->
        unscheduled_preds.(succ) <- unscheduled_preds.(succ) - 1;
        if unscheduled_preds.(succ) = 0 then begin
          make_free succ;
          free := succ :: !free
        end)
      (Dag.succs dag chosen_task);
    decr remaining
  done;
  Workspace.to_schedule ~algorithm:(Netstate.algorithm_name "FTBAR" model) ws
