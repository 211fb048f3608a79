type supply =
  | Local of { l_pred : Dag.task; l_pred_replica : int; l_finish : float }
  | Message of Netstate.message

type replica = {
  r_task : Dag.task;
  r_index : int;
  r_proc : Platform.proc;
  r_start : float;
  r_finish : float;
  r_inputs : supply list;
}

type t = {
  algorithm : string;
  epsilon : int;
  model : Netstate.model;
  costs : Costs.t;
  by_task : replica array array;
  by_proc : replica list array;
  message_count : int;
}

let create ~algorithm ~epsilon ~model ~costs replicas =
  let dag = Costs.dag costs in
  let platform = Costs.platform costs in
  let v = Dag.task_count dag in
  let m = Platform.proc_count platform in
  if epsilon < 0 then invalid_arg "Schedule.create: negative epsilon";
  let per_task = Array.make v [] in
  List.iter
    (fun r ->
      if r.r_task < 0 || r.r_task >= v then
        invalid_arg "Schedule.create: unknown task";
      if r.r_proc < 0 || r.r_proc >= m then
        invalid_arg "Schedule.create: unknown processor";
      per_task.(r.r_task) <- r :: per_task.(r.r_task))
    replicas;
  let by_task =
    Array.mapi
      (fun task rs ->
        let rs = List.sort (fun a b -> compare a.r_index b.r_index) rs in
        if List.length rs <> epsilon + 1 then
          invalid_arg
            (Printf.sprintf
               "Schedule.create: task %d has %d replicas, expected %d" task
               (List.length rs) (epsilon + 1));
        List.iteri
          (fun i r ->
            if r.r_index <> i then
              invalid_arg "Schedule.create: replica indices not 0..epsilon")
          rs;
        let procs = List.map (fun r -> r.r_proc) rs in
        if List.length (List.sort_uniq compare procs) <> epsilon + 1 then
          invalid_arg
            (Printf.sprintf
               "Schedule.create: task %d replicas share a processor" task);
        Array.of_list rs)
      per_task
  in
  let by_proc = Array.make m [] in
  Array.iter
    (fun rs -> Array.iter (fun r -> by_proc.(r.r_proc) <- r :: by_proc.(r.r_proc)) rs)
    by_task;
  let by_proc =
    Array.map (fun rs -> List.sort (fun a b -> compare a.r_start b.r_start) rs) by_proc
  in
  let message_count =
    Array.fold_left
      (fun acc rs ->
        Array.fold_left
          (fun acc r ->
            acc
            + List.length
                (List.filter (function Message _ -> true | Local _ -> false)
                   r.r_inputs))
          acc rs)
      0 by_task
  in
  { algorithm; epsilon; model; costs; by_task; by_proc; message_count }

let algorithm t = t.algorithm
let epsilon t = t.epsilon
let model t = t.model
let costs t = t.costs
let dag t = Costs.dag t.costs
let platform t = Costs.platform t.costs
let replicas t task = t.by_task.(task)
let replica t task i = t.by_task.(task).(i)

let all_replicas t =
  Array.fold_right (fun rs acc -> Array.to_list rs @ acc) t.by_task []

let on_proc t p = t.by_proc.(p)

let messages t =
  List.filter_map
    (fun r ->
      Some
        (List.filter_map
           (function Message m -> Some m | Local _ -> None)
           r.r_inputs))
    (all_replicas t)
  |> List.concat

let message_count t = t.message_count

let latency_zero_crash t =
  Array.fold_left
    (fun acc rs ->
      let first =
        Array.fold_left (fun best r -> Float.min best r.r_finish) infinity rs
      in
      Float.max acc first)
    0. t.by_task

let latency_upper_bound t =
  Array.fold_left
    (fun acc rs ->
      Array.fold_left (fun best r -> Float.max best r.r_finish) acc rs)
    0. t.by_task

let makespan = latency_upper_bound

let pp_summary ppf t =
  Format.fprintf ppf
    "@[<v>schedule %s: %d tasks x %d replicas on %d processors (%s model)@,\
     latency (0 crash) %.3f, upper bound %.3f, %d messages@]"
    t.algorithm
    (Array.length t.by_task)
    (t.epsilon + 1)
    (Platform.proc_count (platform t))
    (Netstate.model_to_string t.model)
    (latency_zero_crash t) (latency_upper_bound t) t.message_count
