type severity = Error | Warning | Info

type finding = {
  f_rule : string;
  f_severity : severity;
  f_loc : Validate.location;
  f_msg : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* -- advisory rules ---------------------------------------------------- *)

let duplicate_supply sched =
  let sg = Supply_graph.build sched in
  let dag = Schedule.dag sched in
  List.concat_map
    (fun (r : Schedule.replica) ->
      List.concat_map
        (fun pred ->
          let sups =
            Supply_graph.suppliers sg ~task:r.Schedule.r_task
              ~replica:r.Schedule.r_index ~pred
            |> List.map (fun s -> s.Supply_graph.sp_replica)
          in
          let dup =
            List.filter
              (fun j ->
                List.length (List.filter (Int.equal j) sups) > 1)
              (List.sort_uniq compare sups)
          in
          List.map
            (fun j ->
              {
                f_rule = "redundancy/duplicate-supply";
                f_severity = Warning;
                f_loc = Validate.replica_loc r;
                f_msg =
                  Printf.sprintf
                    "task %d replica %d books replica %d of predecessor %d \
                     more than once"
                    r.Schedule.r_task r.Schedule.r_index j pred;
              })
            dup)
        (Dag.pred_tasks dag r.Schedule.r_task))
    (Schedule.all_replicas sched)

let granularity sched =
  let g = Granularity.compute (Schedule.costs sched) in
  if Float.is_finite g && g < 0.1 then
    [
      {
        f_rule = "smell/granularity";
        f_severity = Warning;
        f_loc = Validate.no_loc;
        f_msg =
          Printf.sprintf
            "fine-grain instance (granularity %.3f < 0.1): communication \
             dominates computation, replication overhead will be high"
            g;
      };
    ]
  else []

let idle_gap sched =
  let makespan = Schedule.makespan sched in
  if makespan <= 0. then []
  else
    let threshold = 0.25 *. makespan in
    let m = Platform.proc_count (Schedule.platform sched) in
    List.concat_map
      (fun p ->
        Intervals.gaps
          ~bounds:(fun (r : Schedule.replica) ->
            (r.Schedule.r_start, r.Schedule.r_finish))
          (Schedule.on_proc sched p)
        |> List.filter_map (fun (s, f) ->
               if f -. s > threshold then
                 Some
                   {
                     f_rule = "smell/idle-gap";
                     f_severity = Info;
                     f_loc =
                       {
                         Validate.no_loc with
                         l_proc = Some p;
                         l_span = Some (s, f);
                       };
                     f_msg =
                       Printf.sprintf
                         "P%d idles for %.6f (%.0f%% of the makespan) \
                          between [%.6f, %.6f]"
                         p (f -. s)
                         (100. *. (f -. s) /. makespan)
                         s f;
                   }
               else None))
      (List.init m Fun.id)

let run sched =
  let errors =
    Validate.run sched
    |> List.map (fun (v : Validate.violation) ->
           {
             f_rule = v.Validate.check;
             f_severity = Error;
             f_loc = v.Validate.loc;
             f_msg = v.Validate.detail;
           })
  in
  (* already in decreasing severity: errors, then the two warning rules,
     then the info rule *)
  errors @ duplicate_supply sched @ granularity sched @ idle_gap sched

let errors findings =
  List.length (List.filter (fun f -> f.f_severity = Error) findings)

let pp_finding ppf f =
  let loc =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "task %d") f.f_loc.Validate.l_task;
        Option.map (Printf.sprintf "replica %d") f.f_loc.l_replica;
        Option.map (Printf.sprintf "P%d") f.f_loc.l_proc;
        Option.map
          (fun (s, e) -> Printf.sprintf "[%.3f, %.3f]" s e)
          f.f_loc.l_span;
      ]
  in
  Format.fprintf ppf "%-7s %s: %s"
    (severity_to_string f.f_severity)
    f.f_rule f.f_msg;
  if loc <> [] then Format.fprintf ppf " (%s)" (String.concat ", " loc)
