type location = {
  l_task : Dag.task option;
  l_replica : int option;
  l_proc : Platform.proc option;
  l_span : (float * float) option;
}

let no_loc = { l_task = None; l_replica = None; l_proc = None; l_span = None }

type violation = { check : string; detail : string; loc : location }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.check v.detail

(* A time in a violation's detail: six decimals below 1e15 in magnitude,
   [%g] beyond (and for inf and nan), so that an absurd time such as
   1e308 prints as [1e+308], not as 309 digits. *)
let time x =
  if Float.abs x < 1e15 then Printf.sprintf "%.6f" x else Printf.sprintf "%g" x

(* Both sweeps live in [Ftsched_util.Intervals]; these wrappers only
   translate interval conflicts into [violation] records.  [intervals]:
   (start, finish, payload) list.  Zero-length intervals never conflict. *)

let bounds (s, f, _) = (s, f)
let payload (_, _, p) = p

(* [locate] names the payload; the span is the offending interval's *)
let at ~locate (s, f, x) = { (locate x) with l_span = Some (s, f) }

let overlap_violations ~check ~describe ~locate intervals =
  Intervals.overlaps ~bounds intervals
  |> List.rev_map (fun ov ->
         {
           check;
           detail =
             Printf.sprintf
               "%s overlaps %s (running until %s, next starts %s)"
               (describe (payload ov.Intervals.ov_running))
               (describe (payload ov.Intervals.ov_starter))
               (time ov.Intervals.ov_running_until)
               (time ov.Intervals.ov_starts);
           loc = at ~locate ov.Intervals.ov_starter;
         })

(* at most [capacity] of the intervals may overlap at any instant *)
let depth_violations ~capacity ~check ~describe ~locate intervals =
  if capacity = 1 then overlap_violations ~check ~describe ~locate intervals
  else
    Intervals.exceeding ~capacity ~bounds intervals
    |> List.rev_map (fun (x, s, f) ->
           {
             check;
             detail =
               Printf.sprintf "%s exceeds port capacity %d ([%s,%s])"
                 (describe (payload x)) capacity (time s) (time f);
             loc = at ~locate x;
           })

let describe_replica (r : Schedule.replica) =
  Printf.sprintf "task %d replica %d on P%d" r.Schedule.r_task r.Schedule.r_index
    r.Schedule.r_proc

let describe_message (m : Netstate.message) =
  Printf.sprintf "msg t%d[%d] P%d->P%d" m.Netstate.m_source.Netstate.s_task
    m.Netstate.m_source.Netstate.s_replica m.Netstate.m_source.Netstate.s_proc
    m.Netstate.m_dst_proc

let replica_loc (r : Schedule.replica) =
  {
    l_task = Some r.Schedule.r_task;
    l_replica = Some r.Schedule.r_index;
    l_proc = Some r.Schedule.r_proc;
    l_span = Some (r.Schedule.r_start, r.Schedule.r_finish);
  }

(* a message located at processor [proc]: its sender's port or link
   ([s_proc]) or its receiver's port ([m_dst_proc]) *)
let message_loc ~proc (m : Netstate.message) =
  {
    no_loc with
    l_task = Some m.Netstate.m_source.Netstate.s_task;
    l_replica = Some m.Netstate.m_source.Netstate.s_replica;
    l_proc = Some proc;
  }

let run_impl sched =
  let open Schedule in
  let dag = Schedule.dag sched in
  let costs = Schedule.costs sched in
  let violations = ref [] in
  (* every per-replica violation is located at the replica it names *)
  let add r check fmt =
    Printf.ksprintf
      (fun detail ->
        violations := { check; detail; loc = replica_loc r } :: !violations)
      fmt
  in

  (* 1. Execution intervals on each processor are disjoint. *)
  List.iter
    (fun p ->
      let intervals =
        List.map (fun r -> (r.r_start, r.r_finish, r)) (on_proc sched p)
      in
      violations :=
        overlap_violations ~check:"proc-exclusive" ~describe:describe_replica
          ~locate:replica_loc intervals
        @ !violations)
    (Platform.procs (Schedule.platform sched));

  (* 2. Times are finite, durations match the cost matrix and starts are
     non-negative. *)
  List.iter
    (fun r ->
      if not (Float.is_finite r.r_start && Float.is_finite r.r_finish) then
        add r "non-finite-time" "%s runs over [%s, %s]"
          (describe_replica r) (time r.r_start) (time r.r_finish);
      let expected = Costs.exec costs r.r_task r.r_proc in
      if not (Flt.approx_eq ~tol:1e-6 (r.r_finish -. r.r_start) expected) then
        add r "duration" "%s lasts %s, cost matrix says %s"
          (describe_replica r)
          (time (r.r_finish -. r.r_start))
          (time expected);
      if r.r_start < -.Flt.eps then
        add r "start-time" "%s starts before time zero (%s)"
          (describe_replica r) (time r.r_start))
    (all_replicas sched);

  (* 3. Supplies: well-formed and causally consistent. *)
  let replica_finish task idx =
    let rs = replicas sched task in
    if idx < 0 || idx >= Array.length rs then None else Some rs.(idx)
  in
  List.iter
    (fun r ->
      let preds = Dag.pred_tasks dag r.r_task in
      (* every predecessor covered by at least one supply *)
      List.iter
        (fun pred ->
          let covered =
            List.exists
              (function
                | Local l -> l.l_pred = pred
                | Message m -> m.Netstate.m_source.Netstate.s_task = pred)
              r.r_inputs
          in
          if not covered then
            add r "missing-input" "%s has no supply for predecessor %d"
              (describe_replica r) pred)
        preds;
      (* per-predecessor readiness: at least one supply per pred must be
         delivered by the replica start *)
      List.iter
        (fun pred ->
          let readies =
            List.filter_map
              (function
                | Local l when l.l_pred = pred -> Some l.l_finish
                | Message m when m.Netstate.m_source.Netstate.s_task = pred ->
                    Some m.Netstate.m_arrival
                | Local _ | Message _ -> None)
              r.r_inputs
          in
          match readies with
          | [] -> () (* reported above *)
          | _ ->
              let earliest = Flt.min_list readies in
              if not (Flt.leq ~tol:1e-6 earliest r.r_start) then
                add r "precedence"
                  "%s starts at %s before data from %d (ready %s)"
                  (describe_replica r) (time r.r_start) pred (time earliest))
        preds;
      List.iter
        (function
          | Local l -> (
              if not (Dag.mem_edge dag ~src:l.l_pred ~dst:r.r_task) then
                add r "supply-edge" "%s consumes non-edge %d->%d"
                  (describe_replica r) l.l_pred r.r_task;
              match replica_finish l.l_pred l.l_pred_replica with
              | None ->
                  add r "supply-replica" "%s: local supply from unknown replica"
                    (describe_replica r)
              | Some src ->
                  if src.r_proc <> r.r_proc then
                    add r "local-colocation"
                      "%s: local supply from t%d[%d] on different proc P%d"
                      (describe_replica r) l.l_pred l.l_pred_replica src.r_proc;
                  if not (Flt.approx_eq ~tol:1e-6 src.r_finish l.l_finish) then
                    add r "local-finish"
                      "%s: local supply finish %s but source finishes %s"
                      (describe_replica r) (time l.l_finish) (time src.r_finish))
          | Message m -> (
              let s = m.Netstate.m_source in
              if not (Dag.mem_edge dag ~src:s.Netstate.s_task ~dst:r.r_task) then
                add r "supply-edge" "%s consumes non-edge %d->%d"
                  (describe_replica r) s.Netstate.s_task r.r_task;
              if m.Netstate.m_dst_proc <> r.r_proc then
                add r "message-dst" "%s: message destined to P%d"
                  (describe_replica r) m.Netstate.m_dst_proc;
              if s.Netstate.s_proc = r.r_proc then
                add r "message-loop" "%s: message from its own processor"
                  (describe_replica r);
              let { Netstate.m_duration = w; m_leg_start; m_leg_finish;
                    m_arrival; _ } =
                m
              in
              if
                not
                  (Float.is_finite w
                  && Float.is_finite m_leg_start
                  && Float.is_finite m_leg_finish
                  && Float.is_finite m_arrival)
              then
                add r "non-finite-time"
                  "%s: message from t%d has duration %s, leg [%s, %s], \
                   arrival %s"
                  (describe_replica r) s.Netstate.s_task (time w)
                  (time m_leg_start) (time m_leg_finish) (time m_arrival);
              if not (Flt.approx_eq ~tol:1e-6 (m_leg_finish -. m_leg_start) w)
              then
                add r "message-leg"
                  "%s: leg [%s, %s] from t%d lasts %s but duration is %s"
                  (describe_replica r) (time m_leg_start) (time m_leg_finish)
                  s.Netstate.s_task
                  (time (m_leg_finish -. m_leg_start))
                  (time w);
              match replica_finish s.Netstate.s_task s.Netstate.s_replica with
              | None ->
                  add r "supply-replica" "%s: message from unknown replica"
                    (describe_replica r)
              | Some src ->
                  if src.r_proc <> s.Netstate.s_proc then
                    add r "message-src-proc"
                      "%s: message says source on P%d but replica is on P%d"
                      (describe_replica r) s.Netstate.s_proc src.r_proc;
                  if not (Flt.leq ~tol:1e-6 src.r_finish m.Netstate.m_leg_start)
                  then
                    add r "message-causality"
                      "%s: leg starts %s before source finish %s"
                      (describe_replica r)
                      (time m.Netstate.m_leg_start)
                      (time src.r_finish);
                  if
                    not
                      (Flt.leq ~tol:1e-6 m.Netstate.m_leg_finish
                         m.Netstate.m_arrival)
                  then
                    add r "message-arrival"
                      "%s: arrival %s precedes link finish %s"
                      (describe_replica r)
                      (time m.Netstate.m_arrival)
                      (time m.Netstate.m_leg_finish);
                  let expected_w =
                    Platform.comm_time (Schedule.platform sched)
                      ~src:s.Netstate.s_proc ~dst:r.r_proc
                      ~volume:s.Netstate.s_volume
                  in
                  if not (Flt.approx_eq ~tol:1e-6 expected_w m.Netstate.m_duration)
                  then
                    add r "message-duration"
                      "%s: duration %s but volume*delay is %s"
                      (describe_replica r)
                      (time m.Netstate.m_duration)
                      (time expected_w)))
        r.r_inputs)
    (all_replicas sched);

  (* 4. Port and link constraints: inequalities (1)-(3) for the one-port
     model, generalized to depth-k occupancy for the bounded multi-port
     model. *)
  (match Schedule.model sched with
   | Netstate.Macro_dataflow -> ()
   | Netstate.One_port | Netstate.Multiport _ ->
     let capacity =
       match Schedule.model sched with
       | Netstate.Multiport k -> max 1 k
       | Netstate.One_port | Netstate.Macro_dataflow -> 1
     in
     let msgs = messages sched in
     let m = Platform.proc_count (Schedule.platform sched) in
     (* sending constraint (2): at most [capacity] concurrent legs *)
     for p = 0 to m - 1 do
       let legs =
         List.filter_map
           (fun msg ->
             if msg.Netstate.m_source.Netstate.s_proc = p then
               Some (msg.Netstate.m_leg_start, msg.Netstate.m_leg_finish, msg)
             else None)
           msgs
       in
       violations :=
         depth_violations ~capacity ~check:"one-port-send"
           ~describe:describe_message ~locate:(message_loc ~proc:p) legs
         @ !violations
     done;
     (* receiving constraint (3): at most [capacity] concurrent windows *)
     for p = 0 to m - 1 do
       let windows =
         List.filter_map
           (fun msg ->
             if msg.Netstate.m_dst_proc = p then
               Some
                 ( msg.Netstate.m_arrival -. msg.Netstate.m_duration,
                   msg.Netstate.m_arrival,
                   msg )
             else None)
           msgs
       in
       violations :=
         depth_violations ~capacity ~check:"one-port-recv"
           ~describe:describe_message ~locate:(message_loc ~proc:p) windows
         @ !violations
     done;
     (* link constraint (1), per physical link of the platform *)
     let platform = Schedule.platform sched in
     let per_phys = Array.make (Platform.link_count platform) [] in
     List.iter
       (fun msg ->
         let src = msg.Netstate.m_source.Netstate.s_proc in
         let dst = msg.Netstate.m_dst_proc in
         for i = 0 to Platform.route_length platform src dst - 1 do
           let l = Platform.route_link platform src dst i in
           per_phys.(l) <-
             (msg.Netstate.m_leg_start, msg.Netstate.m_leg_finish, msg)
             :: per_phys.(l)
         done)
       msgs;
     Array.iter
       (fun legs ->
         violations :=
           overlap_violations ~check:"one-port-link" ~describe:describe_message
             ~locate:(fun m ->
               message_loc ~proc:m.Netstate.m_source.Netstate.s_proc m)
             legs
           @ !violations)
       per_phys);
  List.rev !violations

let run sched =
  Obs_trace.with_span ~cat:"sched" "validate" (fun () ->
      run_impl sched)

let is_valid sched = run sched = []

let check_exn sched =
  match run sched with
  | [] -> ()
  | vs ->
      let msg =
        String.concat "\n"
          (List.map (fun v -> Format.asprintf "%a" pp_violation v) vs)
      in
      failwith ("invalid schedule:\n" ^ msg)
