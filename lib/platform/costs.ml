type t = {
  dag : Dag.t;
  platform : Platform.t;
  matrix : float array array;  (* task -> proc -> cost *)
  mean_by_task : float array;
  max_by_task : float array;
  min_by_task : float array;
}

let validate matrix =
  Array.iter
    (Array.iter (fun c ->
         if Float.is_nan c || c < 0. then
           invalid_arg "Costs.create: invalid execution cost"))
    matrix

let derive dag platform matrix =
  validate matrix;
  let mean_by_task = Array.map (fun row -> Stats.mean_array row) matrix in
  let max_by_task = Array.map (fun row -> Array.fold_left Float.max 0. row) matrix in
  let min_by_task =
    Array.map (fun row -> Array.fold_left Float.min infinity row) matrix
  in
  { dag; platform; matrix; mean_by_task; max_by_task; min_by_task }

let create dag platform f =
  let v = Dag.task_count dag and m = Platform.proc_count platform in
  let matrix = Array.init v (fun t -> Array.init m (fun p -> f t p)) in
  derive dag platform matrix

let of_matrix dag platform m =
  let v = Dag.task_count dag and procs = Platform.proc_count platform in
  if Array.length m <> v then invalid_arg "Costs.of_matrix: task arity";
  Array.iter
    (fun row ->
      if Array.length row <> procs then invalid_arg "Costs.of_matrix: proc arity")
    m;
  derive dag platform (Array.map Array.copy m)

let exec t task proc = t.matrix.(task).(proc)
let mean_exec t task = t.mean_by_task.(task)
let max_exec t task = t.max_by_task.(task)
let min_exec t task = t.min_by_task.(task)

let scale t s =
  if s <= 0. || Float.is_nan s then invalid_arg "Costs.scale: non-positive factor";
  derive t.dag t.platform (Array.map (Array.map (fun c -> c *. s)) t.matrix)

let dag t = t.dag
let platform t = t.platform
