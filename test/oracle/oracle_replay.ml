(* The replay as first written: [run] rebuilds the event graph of one
   crash scenario and traverses it with a priority heap.  It shares no
   code with [Replay.compile] and its crash-time kernel, which is what
   makes it their oracle: the differential suites compare [Replay.eval]
   and every lane of [Replay.eval_batch] with it, and the rebuild row of
   [bench/main.exe --replay] times it against the batched row.
   Semantically identical to [Replay.eval (Replay.compile sched)
   ~crash_time]. *)

type msg_state = { mutable m_delivered : float (* arrival, or infinity if dead *) }

let run sched ~crash_time =
  Obs_prof.phase ~cat:"sim" "replay" @@ fun () ->
  let dag = Schedule.dag sched in
  let platform = Schedule.platform sched in
  let model = Schedule.model sched in
  let m = Platform.proc_count platform in
  let routes =
    Array.init (m * m) (fun l ->
        let src = l / m and dst = l mod m in
        List.init (Platform.route_length platform src dst)
          (Platform.route_link platform src dst))
  in
  let route src dst = routes.((src * m) + dst) in
  let v = Dag.task_count dag in
  let eps1 = Schedule.epsilon sched + 1 in

  (* -- node numbering ---------------------------------------------- *)
  let replica_node task idx = (task * eps1) + idx in
  let nreplicas = v * eps1 in
  (* collect messages: one node per Message supply, remembering its
     consumer *)
  let messages = ref [] in
  let nmsgs = ref 0 in
  let consumer_msgs = Array.make nreplicas [] in
  Array.iter
    (fun (r : Schedule.replica) ->
      List.iter
        (function
          | Schedule.Message msg ->
              let id = nreplicas + !nmsgs in
              incr nmsgs;
              messages := (id, msg, r) :: !messages;
              consumer_msgs.(replica_node r.Schedule.r_task r.Schedule.r_index) <-
                (id, msg) :: consumer_msgs.(replica_node r.Schedule.r_task r.Schedule.r_index)
          | Schedule.Local _ -> ())
        r.Schedule.r_inputs)
    (Array.of_list (Schedule.all_replicas sched));
  let messages = Array.of_list (List.rev !messages) in
  let nnodes = nreplicas + !nmsgs in

  (* -- dependency edges -------------------------------------------- *)
  let adj = Array.make nnodes [] in
  let indeg = Array.make nnodes 0 in
  let add_edge a b =
    adj.(a) <- b :: adj.(a);
    indeg.(b) <- indeg.(b) + 1
  in
  (* data edges *)
  Array.iter
    (fun (id, msg, _consumer) ->
      let s = msg.Netstate.m_source in
      add_edge (replica_node s.Netstate.s_task s.Netstate.s_replica) id)
    messages;
  List.iter
    (fun (r : Schedule.replica) ->
      let rn = replica_node r.Schedule.r_task r.Schedule.r_index in
      List.iter
        (function
          | Schedule.Message _ -> () (* edge added from the message node *)
          | Schedule.Local { l_pred; l_pred_replica; _ } ->
              add_edge (replica_node l_pred l_pred_replica) rn)
        r.Schedule.r_inputs;
      List.iter (fun (id, _) -> add_edge id rn) consumer_msgs.(rn))
    (Schedule.all_replicas sched);
  (* resource-order edges: chain consecutive static events *)
  let chain nodes =
    let rec go = function
      | a :: (b :: _ as rest) ->
          add_edge a b;
          go rest
      | [ _ ] | [] -> ()
    in
    go nodes
  in
  (* each processor executes its replicas in static start order *)
  for p = 0 to m - 1 do
    chain
      (List.map
         (fun (r : Schedule.replica) ->
           replica_node r.Schedule.r_task r.Schedule.r_index)
         (Schedule.on_proc sched p))
  done;
  (if model <> Netstate.Macro_dataflow then begin
     (* A resource carries its messages in static order.  Messages whose
        windows tie exactly (only zero-length ones can) have no static
        order: their id is not their booking order, and ordering them by
        it can run against another resource's order and close a cycle.
        So each tie group precedes every message of the next group and
        is unordered within; only strictly ordered windows get an edge,
        and those follow the booking order. *)
     let by_key key_of filter =
       let rec groups = function
         | [] -> []
         | (key, id) :: rest -> (
             match groups rest with
             | (key', ids) :: gs when key' = key -> (key, id :: ids) :: gs
             | gs -> (key, [ id ]) :: gs)
       in
       let rec chain_groups = function
         | (_, g) :: ((_, g') :: _ as rest) ->
             List.iter (fun a -> List.iter (fun b -> add_edge a b) g') g;
             chain_groups rest
         | [ _ ] | [] -> ()
       in
       Array.to_list messages
       |> List.filter (fun (_, msg, _) -> filter msg)
       |> List.map (fun (id, msg, _) -> (key_of msg, id))
       |> List.sort compare |> groups |> chain_groups
     in
     (* Port sequencing: only the strictly serializing one-port model
        guarantees that static leg/arrival order matches booking order; a
        k-slot port can give a later-booked message an earlier static time
        (it grabbed a free slot), and chaining by static time would then
        manufacture cycles against the data edges.  Multiport ports are
        sequenced dynamically by the slot state instead. *)
     (if model = Netstate.One_port then
        for p = 0 to m - 1 do
          (* send port of p *)
          by_key
            (fun msg -> (msg.Netstate.m_leg_start, msg.Netstate.m_leg_finish))
            (fun msg -> msg.Netstate.m_source.Netstate.s_proc = p);
          (* receive port of p *)
          by_key
            (fun msg ->
              (msg.Netstate.m_arrival -. msg.Netstate.m_duration, msg.Netstate.m_arrival))
            (fun msg -> msg.Netstate.m_dst_proc = p)
        done);
     (* each physical link of the platform serializes the legs routed
        through it *)
     for l = 0 to Platform.link_count platform - 1 do
       by_key
         (fun msg -> (msg.Netstate.m_leg_start, msg.Netstate.m_leg_finish))
         (fun msg ->
           List.mem l
             (route msg.Netstate.m_source.Netstate.s_proc
                msg.Netstate.m_dst_proc))
     done
   end);

  (* -- dynamic state ------------------------------------------------ *)
  let contended = model <> Netstate.Macro_dataflow in
  let port_slots =
    match model with Netstate.Multiport k -> max 1 k | _ -> 1
  in
  let min_slot slots = Array.fold_left Float.min infinity slots in
  let argmin_slot slots =
    let best = ref 0 in
    Array.iteri (fun i v -> if v < slots.(!best) then best := i) slots;
    !best
  in
  let exec_free = Array.make m 0. in
  let send_free = Array.init m (fun _ -> Array.make port_slots 0.) in
  let recv_free = Array.init m (fun _ -> Array.make port_slots 0.) in
  let phys_free = Array.make (Platform.link_count platform) 0. in
  let link_free src dst =
    List.fold_left (fun acc l -> Float.max acc phys_free.(l)) 0. (route src dst)
  in
  let occupy_link src dst finish =
    List.iter (fun l -> phys_free.(l) <- finish) (route src dst)
  in
  let replica_result = Array.init v (fun _ -> Array.make eps1 Replay.Crashed) in
  let replica_by_node = Array.make nreplicas None in
  List.iter
    (fun (r : Schedule.replica) ->
      replica_by_node.(replica_node r.Schedule.r_task r.Schedule.r_index) <- Some r)
    (Schedule.all_replicas sched);
  let msg_state = Array.init nnodes (fun _ -> { m_delivered = infinity }) in
  let msg_by_node = Array.make nnodes None in
  Array.iter (fun (id, msg, c) -> msg_by_node.(id) <- Some (msg, c)) messages;

  let replica_finish_dyn = Array.make nreplicas infinity in

  let process_replica rn =
    match replica_by_node.(rn) with
    | None -> ()
    | Some r ->
        let task = r.Schedule.r_task and idx = r.Schedule.r_index in
        let p = r.Schedule.r_proc in
        let dur = r.Schedule.r_finish -. r.Schedule.r_start in
        (* per-predecessor earliest surviving supply *)
        let starved = ref None in
        let data_ready = ref 0. in
        List.iter
          (fun pred ->
            let ready = ref infinity in
            List.iter
              (function
                | Schedule.Local { l_pred; l_pred_replica; _ } when l_pred = pred ->
                    let srn = replica_node pred l_pred_replica in
                    ready := Float.min !ready replica_finish_dyn.(srn)
                | Schedule.Local _ -> ()
                | Schedule.Message msg
                  when msg.Netstate.m_source.Netstate.s_task = pred ->
                    (* find the message node to read its delivery time *)
                    List.iter
                      (fun (id, msg') ->
                        if msg' == msg then
                          ready := Float.min !ready msg_state.(id).m_delivered)
                      consumer_msgs.(rn)
                | Schedule.Message _ -> ())
              r.Schedule.r_inputs;
            if !ready = infinity && !starved = None then starved := Some pred
            else data_ready := Float.max !data_ready !ready)
          (Dag.pred_tasks dag task);
        let result =
          if crash_time.(p) = neg_infinity then Replay.Crashed
          else
            match !starved with
            | Some pred -> Replay.Starved pred
            | None ->
                let start = Float.max exec_free.(p) !data_ready in
                let finish = start +. dur in
                if finish > crash_time.(p) then begin
                  (* the processor dies while (or before) this replica
                     would run: nothing later on it can run either *)
                  exec_free.(p) <- infinity;
                  Replay.Crashed
                end
                else begin
                  exec_free.(p) <- Float.max exec_free.(p) finish;
                  replica_finish_dyn.(rn) <- finish;
                  Replay.Ran { start; finish }
                end
        in
        replica_result.(task).(idx) <- result
  in

  let process_message id =
    match msg_by_node.(id) with
    | None -> ()
    | Some (msg, _consumer) ->
        let s = msg.Netstate.m_source in
        let src = s.Netstate.s_proc and dst = msg.Netstate.m_dst_proc in
        let w = msg.Netstate.m_duration in
        let src_rn = replica_node s.Netstate.s_task s.Netstate.s_replica in
        let src_finish = replica_finish_dyn.(src_rn) in
        if src_finish = infinity then
          (* source never produced: message never emitted *)
          msg_state.(id).m_delivered <- infinity
        else begin
          let leg_start =
            if not contended then src_finish
            else
              Float.max (min_slot send_free.(src))
                (Float.max src_finish (link_free src dst))
          in
          let leg_finish = leg_start +. w in
          if leg_finish > crash_time.(src) then begin
            (* sender died before the message fully left; its port sends
               nothing further *)
            Array.fill send_free.(src) 0 port_slots infinity;
            msg_state.(id).m_delivered <- infinity
          end
          else begin
            (if contended then begin
               send_free.(src).(argmin_slot send_free.(src)) <- leg_finish;
               occupy_link src dst leg_finish
             end);
            if crash_time.(dst) = neg_infinity then
              msg_state.(id).m_delivered <- infinity
            else begin
              let slot = argmin_slot recv_free.(dst) in
              let arrival =
                if not contended then leg_finish
                else w +. Float.max recv_free.(dst).(slot) leg_start
              in
              if arrival > crash_time.(dst) then
                msg_state.(id).m_delivered <- infinity
              else begin
                if contended then recv_free.(dst).(slot) <- arrival;
                msg_state.(id).m_delivered <- arrival
              end
            end
          end
        end
  in

  (* -- Kahn traversal, static-time priority order -------------------- *)
  let static_key n =
    if n < nreplicas then
      match replica_by_node.(n) with
      | Some r -> (r.Schedule.r_start, n)
      | None -> (0., n)
    else
      match msg_by_node.(n) with
      | Some (msg, _) -> (msg.Netstate.m_leg_start, n)
      | None -> (0., n)
  in
  let queue = Heap.create ~cmp:(fun a b -> compare (static_key a) (static_key b)) in
  Array.iteri (fun n d -> if d = 0 then Heap.add queue n) indeg;
  let processed = ref 0 in
  while not (Heap.is_empty queue) do
    let n = Heap.pop_exn queue in
    incr processed;
    if n < nreplicas then process_replica n else process_message n;
    List.iter
      (fun n' ->
        indeg.(n') <- indeg.(n') - 1;
        if indeg.(n') = 0 then Heap.add queue n')
      adj.(n)
  done;
  if !processed <> nnodes then
    failwith "Replay.run: cyclic schedule (inconsistent static order)";

  (* -- outcome ------------------------------------------------------ *)
  let failed = ref [] in
  let latency = ref 0. in
  for task = 0 to v - 1 do
    let earliest = ref infinity in
    Array.iter
      (function
        | Replay.Ran { finish; _ } -> earliest := Float.min !earliest finish
        | Replay.Crashed | Replay.Starved _ -> ())
      replica_result.(task);
    if !earliest = infinity then failed := task :: !failed
    else latency := Float.max !latency !earliest
  done;
  let failed_tasks = List.rev !failed in
  {
    Replay.completed = failed_tasks = [];
    latency = (if failed_tasks = [] then !latency else nan);
    failed_tasks;
    replicas = replica_result;
  }
