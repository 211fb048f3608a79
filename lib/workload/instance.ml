let families =
  [
    "random"; "fork"; "join"; "chain"; "out-tree"; "fork-join"; "stencil";
    "gauss"; "butterfly"; "cholesky"; "staged"; "pipelines";
  ]

(* One task graph of roughly [tasks] nodes; [Error] names the unknown
   family and lists the accepted ones.  The RNG is only consumed by the
   [random] family.  The shape parameters derived from [tasks] are frozen:
   the stream-scale golden fingerprints and every cram transcript were
   produced by this exact dispatch (moved verbatim from
   bin/ftsched_cli.ml). *)
let make_dag rng ~family ~tasks =
  match family with
  | "random" ->
      Ok
        (Random_dag.generate rng
           {
             Random_dag.default with
             Random_dag.tasks_min = tasks;
             tasks_max = tasks;
           })
  | "fork" -> Ok (Families.fork (max 1 (tasks - 1)))
  | "join" -> Ok (Families.join (max 1 (tasks - 1)))
  | "chain" -> Ok (Families.chain (max 1 tasks))
  | "fork-join" -> Ok (Families.fork_join (max 1 (tasks - 2)))
  | "out-tree" ->
      (* choose the depth so a binary tree roughly reaches [tasks] nodes *)
      let depth = max 1 (int_of_float (Float.log2 (float_of_int (max 2 tasks)))) in
      Ok (Families.out_tree ~arity:2 ~depth ())
  | "staged" ->
      (* Montage-style staged fan-out/fan-in: 8 stages sized to [tasks] *)
      let stages = 8 in
      let width = max 1 (((max 2 tasks - 1) / stages) - 1) in
      Ok (Families.staged_fanout ~stages ~width ())
  | "pipelines" ->
      (* lane bundle: depth-16 chains, lane count sized to [tasks] *)
      let depth = 16 in
      let lanes = max 1 ((max 3 tasks - 2) / depth) in
      Ok (Families.parallel_chains ~lanes ~depth ())
  | "stencil" ->
      let width = max 2 (int_of_float (sqrt (float_of_int (max 4 tasks)))) in
      Ok (Families.stencil_1d ~width ~steps:(max 2 (tasks / width)) ())
  | "gauss" ->
      let n = max 3 (int_of_float (sqrt (2. *. float_of_int (max 4 tasks)))) in
      Ok (Families.gaussian_elimination n)
  | "butterfly" ->
      let k = max 1 (int_of_float (Float.log2 (float_of_int (max 2 tasks)) /. 2.)) in
      Ok (Families.butterfly k)
  | "cholesky" ->
      (* T tiles yield about T^3/6 tasks *)
      let t = max 2 (int_of_float (Float.cbrt (6. *. float_of_int (max 4 tasks)))) in
      Ok (Families.cholesky t)
  | other ->
      Error
        (Printf.sprintf "unknown graph family %S (expected one of: %s)" other
           (String.concat ", " families))

let no_communication =
  "the instance has no communication to rescale (one processor, or a graph \
   without edges)"

let costs rng ~m ~granularity dag =
  let costs = Platform_gen.instance rng (Platform_gen.default ~m ()) dag in
  let g = Granularity.compute costs in
  if g = 0. || not (Float.is_finite g) then Error no_communication
  else Ok (Granularity.rescale_to costs granularity)

let make ?(seed = 1) ?(family = "random") ?(tasks = 40) ?(m = 10)
    ?(granularity = 1.0) () =
  if tasks < 1 then Error "tasks must be >= 1"
  else if m < 1 then Error "processors must be >= 1"
  else if not (Float.is_finite granularity) || granularity <= 0. then
    Error "granularity must be a positive finite number"
  else
    let rng = Rng.create seed in
    match make_dag rng ~family ~tasks with
    | Error _ as e -> e
    | Ok dag ->
        Result.map (fun costs -> (dag, costs)) (costs rng ~m ~granularity dag)
