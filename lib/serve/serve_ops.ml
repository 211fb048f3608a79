type prepared = {
  p_key : string;
  p_op : string;
  p_run :
    cancel:Cancel.token ->
    (string, Serve_protocol.error_class * string) result;
}

let ops = [ "schedule"; "replay"; "montecarlo"; "analyze" ]

(* -- memo of built schedules + compiled replay engines ----------------- *)

type memo_entry = { me_sched : Schedule.t; me_compiled : Replay.compiled Lazy.t }

type ctx = {
  memo : (string, memo_entry) Hashtbl.t;
  memo_order : string Queue.t;
}

(* Bound on the schedule/engine memo. *)
let memo_capacity = 32
let create () = { memo = Hashtbl.create 16; memo_order = Queue.create () }

(* -- strict parameter extraction ---------------------------------------
   Daemon requests come from the wire, so unlike the CLI there is no
   option parser rejecting typos first: an unknown field is answered
   with [bad_request] naming it, instead of silently evaluating with a
   default the client did not ask for. *)

type 'a parse = ('a, string) result

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let fields_of params =
  match params with Json.Obj kvs -> kvs | _ -> []

let check_known ~allowed fields : unit parse =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fields with
  | Some (k, _) ->
      Error
        (Printf.sprintf "unknown parameter %S (accepted: %s)" k
           (String.concat ", " allowed))
  | None -> Ok ()

let get_int fields name ~default ~min:lo ~max:hi : int parse =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some j -> (
      match j with
      | Json.Int v when v >= lo && v <= hi -> Ok v
      | Json.Int v ->
          Error
            (Printf.sprintf "parameter %S = %d out of range [%d, %d]" name v
               lo hi)
      | _ -> Error (Printf.sprintf "parameter %S must be an integer" name))

let get_float fields name ~default ~min:lo ~max:hi : float parse =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some j -> (
      match Json.to_float j with
      | Some v when Float.is_finite v && v >= lo && v <= hi -> Ok v
      | Some v ->
          Error
            (Printf.sprintf "parameter %S = %g out of range [%g, %g]" name v
               lo hi)
      | None -> Error (Printf.sprintf "parameter %S must be a number" name))

let get_bool fields name ~default : bool parse =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "parameter %S must be a boolean" name)

let get_enum fields name ~default ~values : string parse =
  match List.assoc_opt name fields with
  | None -> Ok default
  | Some (Json.String s) when List.mem s values -> Ok s
  | Some (Json.String s) ->
      Error
        (Printf.sprintf "parameter %S: unknown value %S (accepted: %s)" name s
           (String.concat ", " values))
  | Some _ -> Error (Printf.sprintf "parameter %S must be a string" name)

let get_int_list fields name ~min:lo ~max:hi : int list parse =
  match List.assoc_opt name fields with
  | None -> Ok []
  | Some (Json.List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Int v :: rest when v >= lo && v <= hi -> go (v :: acc) rest
        | Json.Int v :: _ ->
            Error
              (Printf.sprintf "parameter %S: %d out of range [%d, %d]" name v
                 lo hi)
        | _ ->
            Error (Printf.sprintf "parameter %S must be a list of integers" name)
      in
      go [] items
  | Some _ ->
      Error (Printf.sprintf "parameter %S must be a list of integers" name)

(* -- shared instance parameters ----------------------------------------
   Identical vocabulary and defaults to the CLI flags, so a request
   without parameters evaluates the CLI's default instance. *)

type base = {
  b_seed : int;
  b_family : string;
  b_tasks : int;
  b_m : int;
  b_epsilon : int;
  b_granularity : float;
  b_algo : string;
  b_model : string;
}

(* Ceilings a shared daemon enforces that a local CLI run does not: the
   evaluation loops are cancellable, but building a 10^6-task schedule
   is not, so admission is where size is bounded. *)
let max_tasks = 20_000
let max_m = 256
let max_epsilon = 8
let max_runs = 1_000_000

let algo_names = [ "caft"; "ftsa"; "ftbar"; "heft" ]
let model_names = [ "one-port"; "macro"; "multiport-2"; "multiport-4" ]

let base_params =
  [ "seed"; "family"; "tasks"; "m"; "epsilon"; "granularity"; "algo"; "model" ]

let parse_base fields : base parse =
  let* b_seed = get_int fields "seed" ~default:1 ~min:min_int ~max:max_int in
  let* b_family =
    get_enum fields "family" ~default:"random" ~values:Instance.families
  in
  let* b_tasks = get_int fields "tasks" ~default:40 ~min:1 ~max:max_tasks in
  let* b_m = get_int fields "m" ~default:10 ~min:1 ~max:max_m in
  let* b_epsilon =
    get_int fields "epsilon" ~default:1 ~min:0 ~max:(min max_epsilon (b_m - 1))
  in
  let* b_granularity =
    get_float fields "granularity" ~default:1.0 ~min:1e-6 ~max:1e6
  in
  let* b_algo = get_enum fields "algo" ~default:"caft" ~values:algo_names in
  let* b_model =
    get_enum fields "model" ~default:"one-port" ~values:model_names
  in
  Ok { b_seed; b_family; b_tasks; b_m; b_epsilon; b_granularity; b_algo; b_model }

let model_of_name = function
  | "macro" -> Netstate.Macro_dataflow
  | "multiport-2" -> Netstate.Multiport 2
  | "multiport-4" -> Netstate.Multiport 4
  | _ -> Netstate.One_port

(* The canonical field sequence behind every cache key: op, then the
   effective (post-default) instance parameters in a fixed order. *)
let base_fp ~op b =
  Fingerprint.(
    empty |> Fun.flip add_string op
    |> Fun.flip add_int b.b_seed
    |> Fun.flip add_string b.b_family
    |> Fun.flip add_int b.b_tasks
    |> Fun.flip add_int b.b_m
    |> Fun.flip add_int b.b_epsilon
    |> Fun.flip add_float b.b_granularity
    |> Fun.flip add_string b.b_algo
    |> Fun.flip add_string b.b_model)

(* -- schedule construction, memoized ----------------------------------- *)

(* [Error] only for an instance the parameters cannot build (one without
   communication): parse_base validated the rest. *)
let build_schedule b =
  let* _dag, costs =
    Instance.make ~seed:b.b_seed ~family:b.b_family ~tasks:b.b_tasks ~m:b.b_m
      ~granularity:b.b_granularity ()
  in
  let model = model_of_name b.b_model in
  Ok
    (match b.b_algo with
    | "ftsa" -> Ftsa.run ~model ~seed:b.b_seed ~epsilon:b.b_epsilon costs
    | "ftbar" -> Ftbar.run ~model ~seed:b.b_seed ~epsilon:b.b_epsilon costs
    | "heft" -> Heft.run ~model ~seed:b.b_seed costs
    | _ -> Caft.run ~model ~seed:b.b_seed ~epsilon:b.b_epsilon costs)

(* The memo key deliberately excludes the op: a [montecarlo] and a
   [replay] on the same instance share one schedule and one compiled
   engine. *)
let memo_key b = Fingerprint.to_hex (base_fp ~op:"instance" b)

let schedule_of ctx b =
  let key = memo_key b in
  match Hashtbl.find_opt ctx.memo key with
  | Some e -> Ok e
  | None ->
      let* me_sched = build_schedule b in
      let e = { me_sched; me_compiled = lazy (Replay.compile me_sched) } in
      if Hashtbl.length ctx.memo >= memo_capacity then begin
        match Queue.take_opt ctx.memo_order with
        | Some oldest -> Hashtbl.remove ctx.memo oldest
        | None -> ()
      end;
      Hashtbl.replace ctx.memo key e;
      Queue.add key ctx.memo_order;
      Ok e

(* -- result renderers --------------------------------------------------- *)

let float_or_null f = if Float.is_finite f then Json.Float f else Json.Null

let summary_json (s : Stats.summary) =
  Json.Obj
    [
      ("n", Json.Int s.Stats.n);
      ("mean", float_or_null s.Stats.mean);
      ("stddev", float_or_null s.Stats.stddev);
      ("min", float_or_null s.Stats.min);
      ("max", float_or_null s.Stats.max);
      ("median", float_or_null s.Stats.median);
    ]

let schedule_result ~include_text b sched =
  let violations = Validate.run sched in
  Json.Obj
    (("algorithm", Json.String (Schedule.algorithm sched))
    :: ("tasks", Json.Int (Dag.task_count (Schedule.dag sched)))
    :: ("procs", Json.Int b.b_m)
    :: ("epsilon", Json.Int (Schedule.epsilon sched))
    :: ("latency_zero_crash", float_or_null (Schedule.latency_zero_crash sched))
    :: ("latency_upper_bound", float_or_null (Schedule.latency_upper_bound sched))
    :: ("messages", Json.Int (Schedule.message_count sched))
    :: ("replicas", Json.Int (List.length (Schedule.all_replicas sched)))
    :: ("valid", Json.Bool (violations = []))
    ::
    (if include_text then
       [ ("schedule", Json.String (Schedule_io.to_string sched)) ]
     else []))

let replay_result ~crashed (o : Replay.outcome) =
  Json.Obj
    [
      ("crashed", Json.List (List.map (fun p -> Json.Int p) crashed));
      ("completed", Json.Bool o.Replay.completed);
      ("latency", float_or_null o.Replay.latency);
      ( "failed_tasks",
        Json.List (List.map (fun t -> Json.Int t) o.Replay.failed_tasks) );
    ]

let montecarlo_result (r : Monte_carlo.report) =
  Json.Obj
    [
      ("runs", Json.Int r.Monte_carlo.runs);
      ("completed", Json.Int r.Monte_carlo.completed);
      ("failure_rate", float_or_null r.Monte_carlo.failure_rate);
      ("worst_slowdown", float_or_null r.Monte_carlo.worst_slowdown);
      ( "latency",
        match r.Monte_carlo.latency with
        | None -> Json.Null
        | Some s -> summary_json s );
    ]

(* -- op table ----------------------------------------------------------- *)

let bad msg = Error (Serve_protocol.Bad_request, msg)

(* Evaluate [run] on the request's schedule; an instance the parameters
   cannot build is the request's fault. *)
let guard ~cancel ctx b run =
  try
    Cancel.check cancel;
    match schedule_of ctx b with Ok e -> run e | Error msg -> bad msg
  with
  | Cancel.Cancelled ->
      Error
        ( Serve_protocol.Deadline_exceeded,
          "deadline expired during evaluation" )
  | e -> Error (Serve_protocol.Internal, Printexc.to_string e)

let render j = Json.to_string j

let prepare_schedule ctx fields =
  let* () = check_known ~allowed:(base_params @ [ "include_text" ]) fields in
  let* b = parse_base fields in
  let* include_text = get_bool fields "include_text" ~default:false in
  let key =
    Fingerprint.(to_hex (add_bool (base_fp ~op:"schedule" b) include_text))
  in
  Ok
    {
      p_key = key;
      p_op = "schedule";
      p_run =
        (fun ~cancel ->
          guard ~cancel ctx b (fun e ->
            Ok (render (schedule_result ~include_text b e.me_sched))));
    }

let prepare_replay ctx fields =
  let* () = check_known ~allowed:(base_params @ [ "crashed" ]) fields in
  let* b = parse_base fields in
  let* crashed = get_int_list fields "crashed" ~min:0 ~max:(b.b_m - 1) in
  let crashed = List.sort_uniq compare crashed in
  let key =
    Fingerprint.(
      to_hex
        (List.fold_left add_int (base_fp ~op:"replay" b) crashed))
  in
  Ok
    {
      p_key = key;
      p_op = "replay";
      p_run =
        (fun ~cancel ->
          guard ~cancel ctx b (fun e ->
            let o = Replay.eval_crashed (Lazy.force e.me_compiled) ~crashed in
            Ok (render (replay_result ~crashed o))));
    }

let prepare_montecarlo ctx fields =
  let* () =
    check_known ~allowed:(base_params @ [ "runs"; "crashes"; "timed" ]) fields
  in
  let* b = parse_base fields in
  let* runs = get_int fields "runs" ~default:1000 ~min:1 ~max:max_runs in
  let* crashes = get_int fields "crashes" ~default:1 ~min:0 ~max:b.b_m in
  let* timed = get_bool fields "timed" ~default:false in
  let key =
    Fingerprint.(
      to_hex
        (add_bool
           (add_int (add_int (base_fp ~op:"montecarlo" b) runs) crashes)
           timed))
  in
  Ok
    {
      p_key = key;
      p_op = "montecarlo";
      p_run =
        (fun ~cancel ->
          guard ~cancel ctx b (fun e ->
            let mode =
              if timed then Monte_carlo.Timed (Schedule.makespan e.me_sched)
              else Monte_carlo.From_start
            in
            (* seed + 1, exactly as the CLI's montecarlo subcommand *)
            let r =
              Monte_carlo.run ~seed:(b.b_seed + 1) ~runs ~cancel ~crashes
                ~mode e.me_sched
            in
            Ok (render (montecarlo_result r))));
    }

(* analyze has no cancellation hook inside [Resilience.certify], so the
   daemon caps its instance size harder: the deadline can only fire
   before evaluation starts. *)
let analyze_max_tasks = 2_000
let analyze_max_m = 64

let prepare_analyze ctx fields =
  let* () = check_known ~allowed:base_params fields in
  let* b = parse_base fields in
  let* () =
    if b.b_tasks > analyze_max_tasks then
      Error
        (Printf.sprintf "analyze caps 'tasks' at %d (got %d)"
           analyze_max_tasks b.b_tasks)
    else if b.b_m > analyze_max_m then
      Error
        (Printf.sprintf "analyze caps 'm' at %d (got %d)" analyze_max_m b.b_m)
    else Ok ()
  in
  let key = Fingerprint.to_hex (base_fp ~op:"analyze" b) in
  Ok
    {
      p_key = key;
      p_op = "analyze";
      p_run =
        (fun ~cancel ->
          guard ~cancel ctx b (fun e ->
            let report =
              Analysis_report.analyze ~epsilon:b.b_epsilon e.me_sched
            in
            Ok (render (Analysis_report.to_json report))));
    }

let prepare ctx ~op ~params =
  let fields = fields_of params in
  let lift = function
    | Ok p -> Ok p
    | Error msg -> bad msg
  in
  match op with
  | "schedule" -> lift (prepare_schedule ctx fields)
  | "replay" -> lift (prepare_replay ctx fields)
  | "montecarlo" -> lift (prepare_montecarlo ctx fields)
  | "analyze" -> lift (prepare_analyze ctx fields)
  | other ->
      bad
        (Printf.sprintf "unknown op %S (accepted: %s)" other
           (String.concat ", " (ops @ [ "ping"; "stats"; "shutdown" ])))
