(** Quantitative analysis of schedules beyond the two latency bounds.

    These metrics feed the experiment reports and the CLI's inspection
    output: processor utilization, communication footprint, idle time,
    and the distribution of the replication work. *)

type proc_stats = {
  proc : Platform.proc;
  busy : float;  (** total execution time booked on the processor *)
  replica_count : int;
  send_busy : float;  (** total time the send port is transmitting *)
  recv_busy : float;  (** total time the receive port is receiving *)
}

type t = {
  horizon : float;  (** makespan (upper bound) of the schedule *)
  latency : float;  (** zero-crash latency *)
  total_exec : float;  (** sum of all replica execution times *)
  total_comm_time : float;  (** sum of all message durations *)
  total_volume : float;  (** sum of all message data volumes *)
  message_count : int;
  local_supply_count : int;
      (** co-located supplies (messages saved by the intra-processor rule) *)
  mean_utilization : float;
      (** mean over processors of busy / horizon, in [\[0, 1\]] *)
  max_utilization : float;
  replica_imbalance : float;
      (** max replicas on a processor / mean replicas per processor *)
  per_proc : proc_stats list;
}

val analyze : Schedule.t -> t

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable rendering. *)
