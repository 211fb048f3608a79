type t = {
  net : Netstate.t;
  costs : Costs.t;
  epsilon : int;
  (* Replica storage is per-task fixed-capacity rows (epsilon + 1 slots,
     allocated on first placement) plus a count array, so the per-candidate
     queries of the placement inner loop — placed_count, is_placed_on, the
     next replica index — are O(1) instead of O(|placed|) list walks. *)
  counts : int array;
  slots : Schedule.replica array array;
}

let no_row : Schedule.replica array = [||]

let create ?model ~epsilon costs =
  if epsilon < 0 then invalid_arg "Workspace.create: negative epsilon";
  let platform = Costs.platform costs in
  if epsilon >= Platform.proc_count platform then
    invalid_arg
      "Workspace.create: need at least epsilon+1 processors for replication";
  let n = Dag.task_count (Costs.dag costs) in
  {
    net = Netstate.create ?model platform;
    costs;
    epsilon;
    counts = Array.make n 0;
    slots = Array.make n no_row;
  }

let net t = t.net
let costs t = t.costs
let dag t = Costs.dag t.costs
let platform t = Costs.platform t.costs
let epsilon t = t.epsilon

let placed t task =
  let row = t.slots.(task) in
  List.init t.counts.(task) (fun i -> row.(i))

let placed_count t task = t.counts.(task)
let get_placed t task i = t.slots.(task).(i)

let procs_of t task =
  let row = t.slots.(task) in
  List.init t.counts.(task) (fun i -> row.(i).Schedule.r_proc)

let is_placed_on t task proc =
  let row = t.slots.(task) in
  let rec go i =
    i < t.counts.(task)
    && (row.(i).Schedule.r_proc = proc || go (i + 1))
  in
  go 0

let load_sources t src task =
  Netstate.clear_sources src;
  let preds = Dag.preds (dag t) task in
  for slot = 0 to Array.length preds - 1 do
    let pred, volume = preds.(slot) in
    let count = t.counts.(pred) in
    if count = 0 then
      invalid_arg
        (Printf.sprintf "Workspace.load_sources: predecessor %d of %d unplaced"
           pred task);
    let row = t.slots.(pred) in
    for i = 0 to count - 1 do
      let r = row.(i) in
      Netstate.add_source src ~slot ~pred ~task:pred ~replica:r.Schedule.r_index
        ~proc:r.Schedule.r_proc ~finish:r.Schedule.r_finish ~volume
    done
  done;
  Netstate.seal_sources src

let supplies_of_booked (b : Netstate.booked) =
  List.map (fun m -> Schedule.Message m) b.Netstate.b_messages
  @ List.map
      (fun (pred, idx, finish) ->
        Schedule.Local { l_pred = pred; l_pred_replica = idx; l_finish = finish })
      b.Netstate.b_local

let place_unbooked t ~task ~proc ~start ~finish ~inputs =
  let index = t.counts.(task) in
  if index > t.epsilon then
    invalid_arg "Workspace.place: task already fully replicated";
  let r =
    {
      Schedule.r_task = task;
      r_index = index;
      r_proc = proc;
      r_start = start;
      r_finish = finish;
      r_inputs = inputs;
    }
  in
  if t.slots.(task) == no_row then t.slots.(task) <- Array.make (t.epsilon + 1) r
  else t.slots.(task).(index) <- r;
  t.counts.(task) <- index + 1;
  r

let place t ~task ~proc (b : Netstate.booked) =
  place_unbooked t ~task ~proc ~start:b.Netstate.b_start
    ~finish:b.Netstate.b_finish ~inputs:(supplies_of_booked b)

let strip_inputs t ~task ~index =
  let r = t.slots.(task).(index) in
  if r.Schedule.r_inputs <> [] then
    t.slots.(task).(index) <- { r with Schedule.r_inputs = [] }

let completion_lower t task =
  if t.counts.(task) = 0 then
    invalid_arg "Workspace.completion_lower: no replica placed"
  else begin
    let row = t.slots.(task) in
    let acc = ref infinity in
    for i = 0 to t.counts.(task) - 1 do
      acc := Float.min !acc row.(i).Schedule.r_finish
    done;
    !acc
  end

let to_schedule ~algorithm t =
  let replicas =
    List.concat_map (fun task -> placed t task)
      (List.init (Array.length t.counts) Fun.id)
  in
  Schedule.create ~algorithm ~epsilon:t.epsilon ~model:(Netstate.model t.net)
    ~costs:t.costs replicas
