(* Every edge's data volume unless [?volume] says otherwise. *)
let default_volume = 100.

let build n_tasks ?names edges =
  Dag.make ?names ~n:n_tasks ~edges ()

let fork ?(volume = default_volume) n =
  if n < 0 then invalid_arg "Families.fork";
  build (n + 1) (List.init n (fun i -> (0, i + 1, volume)))

let join ?(volume = default_volume) n =
  if n < 0 then invalid_arg "Families.join";
  build (n + 1) (List.init n (fun i -> (i, n, volume)))

let chain n =
  if n < 1 then invalid_arg "Families.chain";
  build n (List.init (n - 1) (fun i -> (i, i + 1, default_volume)))

let tree_sizes ~arity ~depth =
  if arity < 1 || depth < 0 then invalid_arg "Families.tree";
  (* number of nodes of a complete arity-ary tree with [depth] edge levels *)
  let rec total level acc width =
    if level > depth then acc else total (level + 1) (acc + width) (width * arity)
  in
  total 0 0 1

let out_tree ~arity ~depth () =
  let n = tree_sizes ~arity ~depth in
  let edges = ref [] in
  (* node i's children are arity*i + 1 .. arity*i + arity, BFS layout *)
  for i = 0 to n - 1 do
    for c = 1 to arity do
      let j = (arity * i) + c in
      if j < n then edges := (i, j, default_volume) :: !edges
    done
  done;
  build n !edges

let fork_join n =
  if n < 1 then invalid_arg "Families.fork_join";
  let sink = n + 1 in
  build (n + 2)
    (List.init n (fun i -> (0, i + 1, default_volume))
    @ List.init n (fun i -> (i + 1, sink, default_volume)))

let stencil_1d ?(volume = default_volume) ~width ~steps () =
  if width < 1 || steps < 1 then invalid_arg "Families.stencil_1d";
  let id s i = (s * width) + i in
  let edges = ref [] in
  for s = 1 to steps - 1 do
    for i = 0 to width - 1 do
      List.iter
        (fun di ->
          let j = i + di in
          if j >= 0 && j < width then
            edges := (id (s - 1) j, id s i, volume) :: !edges)
        [ -1; 0; 1 ]
    done
  done;
  build (width * steps) !edges

let staged_fanout ~stages ~width () =
  if stages < 1 || width < 1 then invalid_arg "Families.staged_fanout";
  (* Montage/Epigenomics shape: a source, then [stages] rounds of
     [width]-way fan-out each gathered by one synchronization task.  Task
     ids are assigned stage by stage so the hub of stage [s] is the
     gather of stage [s - 1].  Edge count is 2 * stages * width. *)
  let b = Dag.Builder.create () in
  let source = Dag.Builder.add_task ~name:"src" b in
  let hub = ref source in
  for s = 0 to stages - 1 do
    let workers =
      Array.init width (fun i ->
          Dag.Builder.add_task ~name:(Printf.sprintf "s%d_w%d" s i) b)
    in
    let gather = Dag.Builder.add_task ~name:(Printf.sprintf "s%d_gather" s) b in
    Array.iter
      (fun w ->
        Dag.Builder.add_edge b ~src:!hub ~dst:w ~volume:default_volume;
        Dag.Builder.add_edge b ~src:w ~dst:gather ~volume:default_volume)
      workers;
    hub := gather
  done;
  Dag.Builder.build b

let parallel_chains ~lanes ~depth () =
  if lanes < 1 || depth < 1 then invalid_arg "Families.parallel_chains";
  (* [lanes] independent linear pipelines of [depth] tasks between one
     fork and one join — the streaming/pipeline workloads of the
     Benoit–Rehn-Sonigo–Robert line of work, and the widest frontier a
     scheduler can face at a given task count. *)
  let b = Dag.Builder.create () in
  let fork = Dag.Builder.add_task ~name:"fork" b in
  let tails =
    Array.init lanes (fun l ->
        let head = Dag.Builder.add_task ~name:(Printf.sprintf "l%d_0" l) b in
        Dag.Builder.add_edge b ~src:fork ~dst:head ~volume:default_volume;
        let tail = ref head in
        for d = 1 to depth - 1 do
          let next =
            Dag.Builder.add_task ~name:(Printf.sprintf "l%d_%d" l d) b
          in
          Dag.Builder.add_edge b ~src:!tail ~dst:next ~volume:default_volume;
          tail := next
        done;
        !tail)
  in
  let join = Dag.Builder.add_task ~name:"join" b in
  Array.iter
    (fun t -> Dag.Builder.add_edge b ~src:t ~dst:join ~volume:default_volume)
    tails;
  Dag.Builder.build b

let gaussian_elimination ?(volume = default_volume) n =
  if n < 2 then invalid_arg "Families.gaussian_elimination";
  (* steps k = 0 .. n-2; pivot(k) and updates (k, j) for k < j <= n-1 *)
  let b = Dag.Builder.create () in
  let piv = Array.make (n - 1) 0 in
  let upd = Hashtbl.create 64 in
  for k = 0 to n - 2 do
    piv.(k) <- Dag.Builder.add_task ~name:(Printf.sprintf "piv%d" k) b;
    for j = k + 1 to n - 1 do
      Hashtbl.add upd (k, j)
        (Dag.Builder.add_task ~name:(Printf.sprintf "upd%d_%d" k j) b)
    done
  done;
  for k = 0 to n - 2 do
    for j = k + 1 to n - 1 do
      let u = Hashtbl.find upd (k, j) in
      Dag.Builder.add_edge b ~src:piv.(k) ~dst:u ~volume;
      if k > 0 then
        Dag.Builder.add_edge b ~src:(Hashtbl.find upd (k - 1, j)) ~dst:u ~volume
    done;
    if k > 0 then
      Dag.Builder.add_edge b ~src:(Hashtbl.find upd (k - 1, k)) ~dst:piv.(k) ~volume
  done;
  Dag.Builder.build b

let butterfly k =
  if k < 1 then invalid_arg "Families.butterfly";
  let n = 1 lsl k in
  let b = Dag.Builder.create () in
  let node = Array.make_matrix (k + 1) n 0 in
  for rank = 0 to k do
    for i = 0 to n - 1 do
      node.(rank).(i) <-
        Dag.Builder.add_task ~name:(Printf.sprintf "b%d_%d" rank i) b
    done
  done;
  for rank = 1 to k do
    let stride = 1 lsl (rank - 1) in
    for i = 0 to n - 1 do
      Dag.Builder.add_edge b ~src:node.(rank - 1).(i) ~dst:node.(rank).(i)
        ~volume:default_volume;
      Dag.Builder.add_edge b
        ~src:node.(rank - 1).(i lxor stride)
        ~dst:node.(rank).(i) ~volume:default_volume
    done
  done;
  Dag.Builder.build b

let cholesky tiles =
  if tiles < 1 then invalid_arg "Families.cholesky";
  let b = Dag.Builder.create () in
  let potrf = Array.make tiles 0 in
  let trsm = Hashtbl.create 32 (* (k, i), k < i *) in
  let syrk = Hashtbl.create 32 (* (k, i), k < i *) in
  let gemm = Hashtbl.create 32 (* (k, i, j), k < j < i *) in
  for k = 0 to tiles - 1 do
    potrf.(k) <- Dag.Builder.add_task ~name:(Printf.sprintf "potrf%d" k) b;
    for i = k + 1 to tiles - 1 do
      Hashtbl.add trsm (k, i)
        (Dag.Builder.add_task ~name:(Printf.sprintf "trsm%d_%d" k i) b);
      Hashtbl.add syrk (k, i)
        (Dag.Builder.add_task ~name:(Printf.sprintf "syrk%d_%d" k i) b);
      for j = k + 1 to i - 1 do
        Hashtbl.add gemm (k, i, j)
          (Dag.Builder.add_task ~name:(Printf.sprintf "gemm%d_%d_%d" k i j) b)
      done
    done
  done;
  let edge src dst = Dag.Builder.add_edge b ~src ~dst ~volume:default_volume in
  for k = 0 to tiles - 1 do
    (* POTRF(k) consumes the diagonal updates SYRK(j, k) for j < k *)
    for j = 0 to k - 1 do
      edge (Hashtbl.find syrk (j, k)) potrf.(k)
    done;
    for i = k + 1 to tiles - 1 do
      let t = Hashtbl.find trsm (k, i) in
      edge potrf.(k) t;
      (* TRSM(k, i) consumes the panel updates GEMM(j, i, k) for j < k *)
      for j = 0 to k - 1 do
        edge (Hashtbl.find gemm (j, i, k)) t
      done;
      edge t (Hashtbl.find syrk (k, i));
      (* GEMM(k, i, j): needs the two panels TRSM(k, i) and TRSM(k, j) *)
      for j = k + 1 to i - 1 do
        let g = Hashtbl.find gemm (k, i, j) in
        edge t g;
        edge (Hashtbl.find trsm (k, j)) g
      done
    done
  done;
  Dag.Builder.build b
