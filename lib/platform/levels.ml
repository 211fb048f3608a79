type t = { tl : float array; bl : float array }

let compute costs =
  let dag = Costs.dag costs in
  let platform = Costs.platform costs in
  let mean_delay = Platform.mean_delay platform in
  let n = Dag.task_count dag in
  let tl = Array.make n 0. and bl = Array.make n 0. in
  let w t = Costs.mean_exec costs t in
  let c vol = vol *. mean_delay in
  (* Top levels: forward traversal. *)
  Array.iter
    (fun u ->
      Array.iter
        (fun (v, vol) ->
          let cand = tl.(u) +. w u +. c vol in
          if cand > tl.(v) then tl.(v) <- cand)
        (Dag.succs dag u))
    (Dag.topological_order dag);
  (* Bottom levels: backward traversal. *)
  Array.iter
    (fun u ->
      let best = ref 0. in
      Array.iter
        (fun (v, vol) ->
          let cand = c vol +. bl.(v) in
          if cand > !best then best := cand)
        (Dag.succs dag u);
      bl.(u) <- w u +. !best)
    (Dag.reverse_topological_order dag);
  { tl; bl }

let bottom_level t task = t.bl.(task)

let critical_path t =
  let best = ref 0. in
  Array.iteri (fun i tli -> best := Float.max !best (tli +. t.bl.(i))) t.tl;
  !best

let dynamic_top_levels t = Array.copy t.tl
