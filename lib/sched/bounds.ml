let critical_path costs =
  let dag = Costs.dag costs in
  let n = Dag.task_count dag in
  let finish = Array.make n 0. in
  Array.iter
    (fun t ->
      let ready =
        Array.fold_left
          (fun acc (pred, _) -> Float.max acc finish.(pred))
          0. (Dag.preds dag t)
      in
      finish.(t) <- ready +. Costs.min_exec costs t)
    (Dag.topological_order dag);
  Array.fold_left Float.max 0. finish

let work costs =
  let dag = Costs.dag costs in
  let m = Platform.proc_count (Costs.platform costs) in
  let total =
    Dag.fold_tasks (fun t acc -> acc +. Costs.min_exec costs t) dag 0.
  in
  total /. float_of_int m
