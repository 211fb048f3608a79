let sums costs =
  let dag = Costs.dag costs in
  let platform = Costs.platform costs in
  let comp =
    Dag.fold_tasks (fun t acc -> acc +. Costs.max_exec costs t) dag 0.
  in
  let max_delay = Platform.max_delay platform in
  let comm = Dag.fold_edges (fun _ _ vol acc -> acc +. (vol *. max_delay)) dag 0. in
  (comp, comm)

let compute costs =
  let comp, comm = sums costs in
  if comp = 0. then 0. else if comm = 0. then infinity else comp /. comm

let rescale_to costs g =
  if g <= 0. || Float.is_nan g then invalid_arg "Granularity.rescale_to: target";
  let current = compute costs in
  if current = 0. || not (Float.is_finite current) then
    invalid_arg "Granularity.rescale_to: degenerate current granularity";
  Costs.scale costs (g /. current)
