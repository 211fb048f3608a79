let is_out_forest g =
  let n = Dag.task_count g in
  let rec go i = i >= n || (Dag.in_degree g i <= 1 && go (i + 1)) in
  go 0
