type proc_stats = {
  proc : Platform.proc;
  busy : float;
  replica_count : int;
  send_busy : float;
  recv_busy : float;
}

type t = {
  horizon : float;
  latency : float;
  total_exec : float;
  total_comm_time : float;
  total_volume : float;
  message_count : int;
  local_supply_count : int;
  mean_utilization : float;
  max_utilization : float;
  replica_imbalance : float;
  per_proc : proc_stats list;
}

let analyze sched =
  let platform = Schedule.platform sched in
  let horizon = Schedule.makespan sched in
  let messages = Schedule.messages sched in
  let per_proc =
    List.map
      (fun p ->
        let replicas = Schedule.on_proc sched p in
        let busy =
          List.fold_left
            (fun acc (r : Schedule.replica) ->
              acc +. (r.Schedule.r_finish -. r.Schedule.r_start))
            0. replicas
        in
        let send_busy =
          List.fold_left
            (fun acc (msg : Netstate.message) ->
              if msg.Netstate.m_source.Netstate.s_proc = p then
                acc +. (msg.Netstate.m_leg_finish -. msg.Netstate.m_leg_start)
              else acc)
            0. messages
        in
        let recv_busy =
          List.fold_left
            (fun acc (msg : Netstate.message) ->
              if msg.Netstate.m_dst_proc = p then acc +. msg.Netstate.m_duration
              else acc)
            0. messages
        in
        { proc = p; busy; replica_count = List.length replicas; send_busy; recv_busy })
      (Platform.procs platform)
  in
  let total_exec = List.fold_left (fun acc s -> acc +. s.busy) 0. per_proc in
  let total_comm_time =
    List.fold_left (fun acc (msg : Netstate.message) -> acc +. msg.Netstate.m_duration) 0. messages
  in
  let total_volume =
    List.fold_left
      (fun acc (msg : Netstate.message) ->
        acc +. msg.Netstate.m_source.Netstate.s_volume)
      0. messages
  in
  let local_supply_count =
    List.fold_left
      (fun acc (r : Schedule.replica) ->
        acc
        + List.length
            (List.filter
               (function Schedule.Local _ -> true | Schedule.Message _ -> false)
               r.Schedule.r_inputs))
      0 (Schedule.all_replicas sched)
  in
  let utilizations =
    List.map (fun s -> if horizon > 0. then s.busy /. horizon else 0.) per_proc
  in
  let replica_counts = List.map (fun s -> float_of_int s.replica_count) per_proc in
  let mean_replicas = Stats.mean replica_counts in
  {
    horizon;
    latency = Schedule.latency_zero_crash sched;
    total_exec;
    total_comm_time;
    total_volume;
    message_count = List.length messages;
    local_supply_count;
    mean_utilization = Stats.mean utilizations;
    max_utilization = Flt.max_list utilizations;
    replica_imbalance =
      (if mean_replicas > 0. then Flt.max_list replica_counts /. mean_replicas
       else 0.);
    per_proc;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>horizon %.3f, latency %.3f@,\
     execution: %.3f total (utilization mean %.1f%%, max %.1f%%)@,\
     communication: %d messages, %.3f time, %.3f volume; %d local supplies@,\
     replica imbalance: %.2f@,%a@]"
    t.horizon t.latency t.total_exec
    (100. *. t.mean_utilization)
    (100. *. t.max_utilization)
    t.message_count t.total_comm_time t.total_volume t.local_supply_count
    t.replica_imbalance
    (Format.pp_print_list
       ~pp_sep:Format.pp_print_cut
       (fun ppf s ->
         Format.fprintf ppf
           "  P%d: %d replicas, busy %.3f, snd %.3f, rcv %.3f" s.proc
           s.replica_count s.busy s.send_busy s.recv_busy))
    t.per_proc
