(* Third property suite: replay equivalences, replica-outcome
   classification, the critical-chain explanation and the communication
   models. *)

let arbitrary_instance = Helpers.arbitrary_instance ~max_tasks:25
let build_instance = Helpers.instance_of

let prop_timed_equivalences =
  QCheck.Test.make ~count:25
    ~name:"timed crashes at the extremes match from-start / fault-free"
    arbitrary_instance (fun ((seed, m, _) as inst) ->
      let _, costs = build_instance inst in
      let sched = Caft.run ~epsilon:1 costs in
      let rng = Rng.create (seed + 3) in
      let p = Rng.int rng m in
      let late =
        Replay.crash_timed sched ~crashes:[ (p, Schedule.makespan sched +. 1.) ]
      in
      let ff = Replay.fault_free sched in
      let early = Replay.crash_timed sched ~crashes:[ (p, neg_infinity) ] in
      let start = Replay.crash_from_start sched ~crashed:[ p ] in
      late.Replay.completed
      && Flt.approx_eq late.Replay.latency ff.Replay.latency
      && early.Replay.completed = start.Replay.completed
      && ((not early.Replay.completed)
         || Flt.approx_eq early.Replay.latency start.Replay.latency))

let prop_crash_outcome_classification =
  QCheck.Test.make ~count:25
    ~name:"every replica outcome is classified consistently"
    arbitrary_instance (fun ((seed, m, _) as inst) ->
      let _, costs = build_instance inst in
      let sched = Ftsa.run ~epsilon:2 costs in
      let rng = Rng.create (seed + 5) in
      let crashed = Scenario.uniform_procs rng ~m ~count:2 in
      let out = Replay.crash_from_start sched ~crashed in
      let ok = ref true in
      Array.iteri
        (fun task per ->
          Array.iteri
            (fun idx outcome ->
              let r = Schedule.replica sched task idx in
              match outcome with
              | Replay.Crashed ->
                  (* from-start crashes only kill replicas on dead procs *)
                  if not (List.mem r.Schedule.r_proc crashed) then ok := false
              | Replay.Ran { start; finish } ->
                  if List.mem r.Schedule.r_proc crashed then ok := false;
                  if start > finish || start < -.Flt.eps then ok := false
              | Replay.Starved pred ->
                  if not (Dag.mem_edge (Schedule.dag sched) ~src:pred ~dst:task)
                  then ok := false)
            per)
        out.Replay.replicas;
      !ok)

let prop_explain_well_formed =
  QCheck.Test.make ~count:25 ~name:"critical chain reaches the latency"
    arbitrary_instance (fun inst ->
      let _, costs = build_instance inst in
      List.for_all
        (fun sched ->
          let steps = Explain.critical_chain sched in
          match List.rev steps with
          | [] -> false
          | last :: _ ->
              Flt.approx_eq ~tol:1e-6 last.Explain.finish
                (Schedule.latency_zero_crash sched)
              && (List.hd steps).Explain.via = Explain.Start
              && Explain.comm_share sched >= 0.
              && Explain.comm_share sched <= 1.)
        [ Caft.run ~epsilon:1 costs; Ftbar.run ~epsilon:1 costs ])

let prop_port_capacity_monotone_bookings =
  (* The sound version of "multiport sits between macro and one-port":
     heuristic *schedules* are not comparable across models (each model
     steers the placements differently), but the booking engine itself is
     monotone — replaying the *same* sequence of bookings, more port
     capacity never delays a replica. *)
  QCheck.Test.make ~count:40
    ~name:"identical bookings: macro <= multiport-4 <= multiport-2 <= one-port"
    (QCheck.make
       QCheck.Gen.(pair Helpers.seed_gen (int_range 2 12))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d bookings=%d" s n))
    (fun (seed, bookings) ->
      let m = 4 in
      let platform = Platform.uniform ~m ~delay:1. in
      let nets =
        List.map
          (fun model -> Netstate.create ~model platform)
          [
            Netstate.Macro_dataflow;
            Netstate.Multiport 4;
            Netstate.Multiport 2;
            Netstate.One_port;
          ]
      in
      let rng = Rng.create seed in
      let ok = ref true in
      (* replicas of a fork root placed once, then random consumers *)
      let root_finish = 10. in
      for i = 1 to bookings do
        let proc = Rng.int rng m in
        let exec = Rng.float_in rng 1. 20. in
        let sources =
          List.init
            (1 + Rng.int rng 2)
            (fun j ->
              {
                Netstate.s_task = 0;
                s_replica = j;
                s_proc = (proc + 1 + Rng.int rng (m - 1)) mod m;
                s_finish = root_finish;
                s_volume = Rng.float_in rng 1. 30.;
              })
        in
        ignore i;
        let finishes =
          List.map
            (fun net ->
              (Oracle_booking.book_replica net ~proc ~exec ~inputs:[ (0, sources) ])
                .Netstate.b_finish)
            nets
        in
        let rec non_decreasing = function
          | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
          | _ -> true
        in
        if not (non_decreasing finishes) then ok := false
      done;
      !ok)

let suite =
  List.map (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 721133 |]) t)
    [
      prop_timed_equivalences;
      prop_crash_outcome_classification;
      prop_explain_well_formed;
      prop_port_capacity_monotone_bookings;
    ]
