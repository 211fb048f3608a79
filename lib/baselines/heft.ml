let run ?model ?seed costs =
  let sched = Ftsa.run ?model ?seed ~epsilon:0 costs in
  (* Re-badge: a 0-replication FTSA run is the HEFT algorithm. *)
  Schedule.create ~algorithm:"HEFT" ~epsilon:0 ~model:(Schedule.model sched)
    ~costs:(Schedule.costs sched)
    (Schedule.all_replicas sched)
