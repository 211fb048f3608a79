let run ?(model = Netstate.One_port) ?(seed = 42) ~epsilon costs =
  let ws = Workspace.create ~model ~epsilon costs in
  let net = Workspace.net ws in
  let m = Platform.proc_count (Workspace.platform ws) in
  let rng = Rng.create seed in
  let prio = Prio.create ~rng costs in
  let src = Netstate.create_sources () in
  let finish = Array.make m 0. in
  let rank = Array.make m 0 in
  let by_finish a b =
    let c = Float.compare finish.(a) finish.(b) in
    if c <> 0 then c else Int.compare a b
  in
  let rec loop () =
    match Prio.pop prio with
    | None ->
        if not (Prio.is_done prio) then
          failwith "Ftsa.run: no free task but tasks remain (DAG inconsistency)"
    | Some task ->
        let exec p = Costs.exec costs task p in
        Workspace.load_sources ws src task;
        (* Evaluation pass: probe the mapping on every processor and rank
           by finish time ("the first epsilon+1 processors that allow the
           minimum finish time are kept"). *)
        for p = 0 to m - 1 do
          let _, f =
            Netstate.probe net src ~colocate_exclusive:true ~proc:p
              ~exec:(exec p)
          in
          finish.(p) <- f;
          rank.(p) <- p
        done;
        Array.sort by_finish rank;
        (* Commit pass: book the replicas on the evolving state, in rank
           order.  Within the one-port model the later replicas may land
           slightly after their simulated finish because the earlier
           replicas' messages now occupy the ports. *)
        for i = 0 to epsilon do
          let p = rank.(i) in
          let booked =
            Netstate.commit net src ~colocate_exclusive:true ~proc:p
              ~exec:(exec p)
          in
          ignore (Workspace.place ws ~task ~proc:p booked)
        done;
        Prio.mark_scheduled prio task
          ~completion:(Workspace.completion_lower ws task);
        loop ()
  in
  loop ();
  Workspace.to_schedule ~algorithm:(Netstate.algorithm_name "FTSA" model) ws
