type task = int

type t = {
  names : string array;
  succs : (task * float) array array;
  preds : (task * float) array array;
  edge_count : int;
  topo : task array;
}

exception Cycle of task list

(* Depth-first topological sort; raises [Cycle] with a witness.  The DFS
   runs on an explicit stack — recursion depth equals the longest path,
   which overflows the OCaml stack on the 10^5-deep chains the workflow
   families can produce.  The frame stack replays the recursive version
   exactly (same visit order, same witness), so the [topo] array — and
   everything downstream that iterates it, schedules included — is
   byte-identical to the recursive implementation's. *)
let topo_sort n succs =
  let state = Array.make n `White in
  let order = ref [] in
  (* a frame is (task, index of the next successor to visit) *)
  let stack = ref [] in
  let cycle_witness u =
    (* the gray frames top-to-bottom are the recursive call path *)
    let path = List.map fst !stack in
    let rec cut acc = function
      | [] -> acc
      | x :: _ when x = u -> u :: acc
      | x :: rest -> cut (x :: acc) rest
    in
    raise (Cycle (cut [] path))
  in
  let rec drain () =
    match !stack with
    | [] -> ()
    | (u, i) :: rest ->
        if i >= Array.length succs.(u) then begin
          state.(u) <- `Black;
          order := u :: !order;
          stack := rest;
          drain ()
        end
        else begin
          stack := (u, i + 1) :: rest;
          let v, _ = succs.(u).(i) in
          (match state.(v) with
          | `Black -> ()
          | `Gray -> cycle_witness v
          | `White ->
              state.(v) <- `Gray;
              stack := (v, 0) :: !stack);
          drain ()
        end
  in
  for u = 0 to n - 1 do
    if state.(u) = `White then begin
      state.(u) <- `Gray;
      stack := [ (u, 0) ];
      drain ()
    end
  done;
  Array.of_list !order

module Builder = struct
  type t = {
    mutable n : int;
    mutable names_rev : string list;
    mutable edges_rev : (task * task * float) list;
    mutable edge_set : (task * task, unit) Hashtbl.t;
  }

  let create () =
    { n = 0; names_rev = []; edges_rev = []; edge_set = Hashtbl.create 64 }

  let add_task ?name b =
    let id = b.n in
    b.n <- id + 1;
    let name = match name with Some s -> s | None -> Printf.sprintf "t%d" id in
    b.names_rev <- name :: b.names_rev;
    id

  let add_edge b ~src ~dst ~volume =
    if src < 0 || src >= b.n then invalid_arg "Dag.Builder.add_edge: unknown src";
    if dst < 0 || dst >= b.n then invalid_arg "Dag.Builder.add_edge: unknown dst";
    if src = dst then invalid_arg "Dag.Builder.add_edge: self edge";
    if volume < 0. || Float.is_nan volume then
      invalid_arg "Dag.Builder.add_edge: negative volume";
    if Hashtbl.mem b.edge_set (src, dst) then
      invalid_arg "Dag.Builder.add_edge: duplicate edge";
    Hashtbl.add b.edge_set (src, dst) ();
    b.edges_rev <- (src, dst, volume) :: b.edges_rev

  let build b =
    let n = b.n in
    let names = Array.of_list (List.rev b.names_rev) in
    let succs_l = Array.make n [] and preds_l = Array.make n [] in
    let edge_count = List.length b.edges_rev in
    List.iter
      (fun (src, dst, vol) ->
        succs_l.(src) <- (dst, vol) :: succs_l.(src);
        preds_l.(dst) <- (src, vol) :: preds_l.(dst))
      b.edges_rev;
    (* Construction pushed edges in reverse, so the lists are now in
       insertion order. *)
    let succs = Array.map Array.of_list succs_l in
    let preds = Array.map Array.of_list preds_l in
    let topo = topo_sort n succs in
    { names; succs; preds; edge_count; topo }
end

let make ?names ~n ~edges () =
  let b = Builder.create () in
  for i = 0 to n - 1 do
    let name =
      match names with
      | Some arr when i < Array.length arr -> Some arr.(i)
      | _ -> None
    in
    ignore (Builder.add_task ?name b)
  done;
  List.iter (fun (src, dst, volume) -> Builder.add_edge b ~src ~dst ~volume) edges;
  Builder.build b

let task_count t = Array.length t.names
let edge_count t = t.edge_count

let check_task t i fn =
  if i < 0 || i >= task_count t then invalid_arg ("Dag." ^ fn ^ ": bad task id")

let name t i =
  check_task t i "name";
  t.names.(i)

let succs t i =
  check_task t i "succs";
  t.succs.(i)

let preds t i =
  check_task t i "preds";
  t.preds.(i)

let succ_tasks t i = Array.to_list (Array.map fst (succs t i))
let pred_tasks t i = Array.to_list (Array.map fst (preds t i))
let out_degree t i = Array.length (succs t i)
let in_degree t i = Array.length (preds t i)

let volume t ~src ~dst =
  check_task t src "volume";
  let found = ref None in
  Array.iter (fun (d, v) -> if d = dst then found := Some v) t.succs.(src);
  !found

let mem_edge t ~src ~dst = volume t ~src ~dst <> None

let entries t =
  List.filter (fun i -> in_degree t i = 0)
    (List.init (task_count t) (fun i -> i))

let exits t =
  List.filter (fun i -> out_degree t i = 0)
    (List.init (task_count t) (fun i -> i))

let topological_order t = t.topo

let reverse_topological_order t =
  let n = Array.length t.topo in
  Array.init n (fun i -> t.topo.(n - 1 - i))

let fold_edges f t acc =
  Array.fold_left
    (fun acc u ->
      Array.fold_left (fun acc (v, vol) -> f u v vol acc) acc t.succs.(u))
    acc t.topo

let iter_edges f t = fold_edges (fun u v vol () -> f u v vol) t ()

let fold_tasks f t acc =
  let acc = ref acc in
  for i = 0 to task_count t - 1 do
    acc := f i !acc
  done;
  !acc

let longest_path_length t =
  let n = task_count t in
  if n = 0 then 0
  else begin
    let depth = Array.make n 1 in
    Array.iter
      (fun u ->
        Array.iter
          (fun (v, _) -> if depth.(u) + 1 > depth.(v) then depth.(v) <- depth.(u) + 1)
          t.succs.(u))
      t.topo;
    Array.fold_left max 1 depth
  end

let transitive_closure_cap = 10_000

let transitive_closure t =
  let n = task_count t in
  if n > transitive_closure_cap then
    invalid_arg
      (Printf.sprintf
         "Dag.transitive_closure: %d tasks exceed the %d-task cap (the \
          reachability matrix is O(n^2) words); width is not large-n safe"
         n transitive_closure_cap);
  let reach = Array.init n (fun _ -> Array.make n false) in
  for i = 0 to n - 1 do
    reach.(i).(i) <- true
  done;
  (* Process in reverse topological order so each successor row is final. *)
  Array.iter
    (fun u ->
      Array.iter
        (fun (v, _) ->
          for j = 0 to n - 1 do
            if reach.(v).(j) then reach.(u).(j) <- true
          done)
        t.succs.(u))
    (reverse_topological_order t);
  reach

(* Maximum bipartite matching (Hopcroft–Karp).  [adj.(u)] lists the right
   vertices reachable from left vertex [u]. *)
let hopcroft_karp ~left ~right adj =
  let inf = max_int in
  let match_l = Array.make left (-1) in
  let match_r = Array.make right (-1) in
  let dist = Array.make left inf in
  let queue = Queue.create () in
  let bfs () =
    Queue.clear queue;
    for u = 0 to left - 1 do
      if match_l.(u) = -1 then begin
        dist.(u) <- 0;
        Queue.add u queue
      end
      else dist.(u) <- inf
    done;
    let found = ref false in
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          match match_r.(v) with
          | -1 -> found := true
          | u' ->
              if dist.(u') = inf then begin
                dist.(u') <- dist.(u) + 1;
                Queue.add u' queue
              end)
        adj.(u)
    done;
    !found
  in
  let rec dfs u =
    let rec try_edges = function
      | [] ->
          dist.(u) <- inf;
          false
      | v :: rest ->
          let ok =
            match match_r.(v) with
            | -1 -> true
            | u' -> dist.(u') = dist.(u) + 1 && dfs u'
          in
          if ok then begin
            match_l.(u) <- v;
            match_r.(v) <- u;
            true
          end
          else try_edges rest
    in
    try_edges adj.(u)
  in
  let matching = ref 0 in
  while bfs () do
    for u = 0 to left - 1 do
      if match_l.(u) = -1 && dfs u then incr matching
    done
  done;
  !matching

let width t =
  let n = task_count t in
  if n = 0 then 0
  else begin
    (* Dilworth: maximum antichain = n - maximum matching in the bipartite
       comparability graph of the strict reachability relation. *)
    let reach = transitive_closure t in
    let adj =
      Array.init n (fun u ->
          let acc = ref [] in
          for v = n - 1 downto 0 do
            if v <> u && reach.(u).(v) then acc := v :: !acc
          done;
          !acc)
    in
    n - hopcroft_karp ~left:n ~right:n adj
  end
