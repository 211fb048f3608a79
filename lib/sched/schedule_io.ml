exception Parse_error of { line : int; message : string }

let fl x = Printf.sprintf "%.17g" x

(* A task name is one word of its [task] line unless it is empty, holds
   a character [String.trim] strips, or starts with ['"']: such a name is
   written as an OCaml string literal ([%S]).  Every other name is written
   as is, without a copy. *)
let needs_quote name =
  name = ""
  || name.[0] = '"'
  || String.exists
       (function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
       name

let name_field name =
  if needs_quote name then Printf.sprintf "%S" name else name

(* Shared emitters: [to_string] and the streaming writer both go through
   these, so the two paths produce identical bytes for identical content
   by construction (line order aside — see [stream_writer]). *)

let emit_instance add ~algorithm ~epsilon ~model costs =
  let dag = Costs.dag costs in
  let platform = Costs.platform costs in
  let v = Dag.task_count dag and m = Platform.proc_count platform in
  add "ftsched-schedule v1\n";
  add (Printf.sprintf "algorithm %s\n" algorithm);
  add (Printf.sprintf "epsilon %d\n" epsilon);
  add (Printf.sprintf "model %s\n" (Netstate.model_to_string model));
  add (Printf.sprintf "tasks %d\n" v);
  add (Printf.sprintf "procs %d\n" m);
  for t = 0 to v - 1 do
    add (Printf.sprintf "task %d %s\n" t (name_field (Dag.name dag t)))
  done;
  Dag.iter_edges
    (fun src dst vol -> add (Printf.sprintf "edge %d %d %s\n" src dst (fl vol)))
    dag;
  for k = 0 to m - 1 do
    for h = 0 to m - 1 do
      if k <> h then
        add
          (Printf.sprintf "delay %d %d %s\n" k h (fl (Platform.delay platform k h)))
    done
  done;
  (* a routed interconnect: its link count and every route; the clique
     has none of these lines *)
  if not (Platform.is_clique platform) then begin
    add (Printf.sprintf "links %d\n" (Platform.link_count platform));
    for k = 0 to m - 1 do
      for h = 0 to m - 1 do
        if k <> h then begin
          add (Printf.sprintf "route %d %d" k h);
          for i = 0 to Platform.route_length platform k h - 1 do
            add (Printf.sprintf " %d" (Platform.route_link platform k h i))
          done;
          add "\n"
        end
      done
    done
  end;
  for t = 0 to v - 1 do
    for p = 0 to m - 1 do
      add (Printf.sprintf "cost %d %d %s\n" t p (fl (Costs.exec costs t p)))
    done
  done

let emit_replica add (r : Schedule.replica) =
  add
    (Printf.sprintf "replica %d %d %d %s %s\n" r.Schedule.r_task
       r.Schedule.r_index r.Schedule.r_proc (fl r.Schedule.r_start)
       (fl r.Schedule.r_finish));
  List.iter
    (function
      | Schedule.Local { l_pred; l_pred_replica; l_finish } ->
          add
            (Printf.sprintf "local %d %d %d %d %s\n" r.Schedule.r_task
               r.Schedule.r_index l_pred l_pred_replica (fl l_finish))
      | Schedule.Message msg ->
          let s = msg.Netstate.m_source in
          add
            (Printf.sprintf "message %d %d %d %d %d %s %s %d %s %s %s %s\n"
               r.Schedule.r_task r.Schedule.r_index s.Netstate.s_task
               s.Netstate.s_replica s.Netstate.s_proc (fl s.Netstate.s_finish)
               (fl s.Netstate.s_volume) msg.Netstate.m_dst_proc
               (fl msg.Netstate.m_duration) (fl msg.Netstate.m_leg_start)
               (fl msg.Netstate.m_leg_finish) (fl msg.Netstate.m_arrival)))
    r.Schedule.r_inputs

let to_string sched =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  emit_instance add
    ~algorithm:(Schedule.algorithm sched)
    ~epsilon:(Schedule.epsilon sched) ~model:(Schedule.model sched)
    (Schedule.costs sched);
  List.iter (emit_replica add) (Schedule.all_replicas sched);
  add "end\n";
  Buffer.contents buf

let to_file path sched =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string sched))

(* -- streaming writer --------------------------------------------------- *)

type writer = { oc : out_channel; mutable state : [ `Open | `Closed ] }

let stream_writer ~algorithm ~epsilon ~model ~path costs =
  let oc = open_out path in
  (try emit_instance (output_string oc) ~algorithm ~epsilon ~model costs
   with exn ->
     close_out_noerr oc;
     raise exn);
  { oc; state = `Open }

let stream_replica w r =
  if w.state = `Closed then invalid_arg "Schedule_io.stream_replica: closed";
  emit_replica (output_string w.oc) r

let stream_close w =
  if w.state = `Open then begin
    w.state <- `Closed;
    Fun.protect
      ~finally:(fun () -> close_out w.oc)
      (fun () -> output_string w.oc "end\n")
  end

(* -- parsing ------------------------------------------------------------ *)

type parse_state = {
  mutable algorithm : string;
  mutable epsilon : int;
  mutable pmodel : Netstate.model;
  mutable tasks : int;
  mutable procs : int;
  (* instance lines in reverse, each with its line number: ids are
     range-checked once [tasks] and [procs] are known *)
  mutable names : (int * (int * string)) list;
  mutable edges : (int * (int * int * float)) list;
  mutable delays : (int * (int * int * float)) list;
  mutable links : (int * int) option;  (* line, link count *)
  mutable routes : (int * (int * int * int list)) list;
  mutable costs : (int * (int * int * float)) list;
  (* replicas keyed by (task, idx) and supplies accumulated in reverse,
     each with its line number, so ids are range-checked once [tasks]
     and [procs] are known *)
  replicas : (int * int, int * (float * float * int)) Hashtbl.t;
  supplies : (int * int, (int * Schedule.supply) list) Hashtbl.t;
}

let parse text =
  let st =
    {
      algorithm = "?";
      epsilon = -1;
      pmodel = Netstate.One_port;
      tasks = -1;
      procs = -1;
      names = [];
      edges = [];
      delays = [];
      links = None;
      routes = [];
      costs = [];
      replicas = Hashtbl.create 64;
      supplies = Hashtbl.create 64;
    }
  in
  let fail line message = raise (Parse_error { line; message }) in
  let int_of line s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail line (Printf.sprintf "expected integer, got %S" s)
  in
  let float_of line s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail line (Printf.sprintf "expected float, got %S" s)
  in
  let add_supply key lineno supply =
    Hashtbl.replace st.supplies key
      ((lineno, supply)
      :: Option.value (Hashtbl.find_opt st.supplies key) ~default:[])
  in
  let saw_end = ref false and end_line = ref 0 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = String.trim raw in
      if line <> "" && not !saw_end then begin
        let words =
          String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
        in
        match words with
        | [ "ftsched-schedule"; "v1" ] when lineno = 1 -> ()
        | _ when lineno = 1 -> fail lineno "missing header 'ftsched-schedule v1'"
        | [ "algorithm"; name ] -> st.algorithm <- name
        | [ "epsilon"; e ] -> st.epsilon <- int_of lineno e
        | [ "model"; spelling ] -> (
            match Netstate.model_of_string spelling with
            | Ok model -> st.pmodel <- model
            | Error msg -> fail lineno msg)
        | [ "tasks"; n ] -> st.tasks <- int_of lineno n
        | [ "procs"; n ] -> st.procs <- int_of lineno n
        | "task" :: id :: name :: _ when name.[0] = '"' ->
            let id = int_of lineno id in
            let q = String.index line '"' in
            let name =
              try
                Scanf.sscanf
                  (String.sub line q (String.length line - q))
                  "%S%!" Fun.id
              with Scanf.Scan_failure _ | Failure _ | End_of_file ->
                fail lineno "bad quoted task name"
            in
            st.names <- (lineno, (id, name)) :: st.names
        | [ "task"; id; name ] ->
            st.names <- (lineno, (int_of lineno id, name)) :: st.names
        | [ "edge"; src; dst; vol ] ->
            let edge =
              (int_of lineno src, int_of lineno dst, float_of lineno vol)
            in
            st.edges <- (lineno, edge) :: st.edges
        | [ "delay"; k; h; d ] ->
            st.delays <-
              (lineno, (int_of lineno k, int_of lineno h, float_of lineno d))
              :: st.delays
        | [ "links"; n ] -> st.links <- Some (lineno, int_of lineno n)
        | "route" :: k :: h :: ids ->
            let route =
              (int_of lineno k, int_of lineno h, List.map (int_of lineno) ids)
            in
            st.routes <- (lineno, route) :: st.routes
        | [ "cost"; t; p; c ] ->
            st.costs <-
              (lineno, (int_of lineno t, int_of lineno p, float_of lineno c))
              :: st.costs
        | [ "replica"; task; idx; proc; start; finish ] ->
            let ((t, i) as key) = (int_of lineno task, int_of lineno idx) in
            (match Hashtbl.find_opt st.replicas key with
            | Some (first, _) ->
                fail lineno
                  (Printf.sprintf "replica %d of task %d repeats line %d" i t
                     first)
            | None -> ());
            Hashtbl.add st.replicas key
              ( lineno,
                (float_of lineno start, float_of lineno finish, int_of lineno proc)
              )
        | [ "local"; task; idx; pred; pidx; finish ] ->
            let key = (int_of lineno task, int_of lineno idx) in
            let supply =
              Schedule.Local
                {
                  l_pred = int_of lineno pred;
                  l_pred_replica = int_of lineno pidx;
                  l_finish = float_of lineno finish;
                }
            in
            add_supply key lineno supply
        | [
         "message"; task; idx; pred; pidx; sproc; sfinish; volume; dst; dur;
         lstart; lfinish; arrival;
        ] ->
            let key = (int_of lineno task, int_of lineno idx) in
            let supply =
              Schedule.Message
                {
                  Netstate.m_source =
                    {
                      Netstate.s_task = int_of lineno pred;
                      s_replica = int_of lineno pidx;
                      s_proc = int_of lineno sproc;
                      s_finish = float_of lineno sfinish;
                      s_volume = float_of lineno volume;
                    };
                  m_dst_proc = int_of lineno dst;
                  m_duration = float_of lineno dur;
                  m_leg_start = float_of lineno lstart;
                  m_leg_finish = float_of lineno lfinish;
                  m_arrival = float_of lineno arrival;
                }
            in
            add_supply key lineno supply
        | [ "end" ] ->
            saw_end := true;
            end_line := lineno
        | w :: _ -> fail lineno ("unknown directive " ^ w)
        | [] -> ()
      end)
    lines;
  if not !saw_end then fail (List.length lines) "missing 'end'";
  if st.tasks < 0 then fail 0 "missing 'tasks'";
  if st.procs < 1 then fail 0 "missing 'procs'";
  if st.epsilon < 0 then fail 0 "missing 'epsilon'";
  let in_range line what id bound =
    if id < 0 || id >= bound then
      fail line (Printf.sprintf "%s %d out of range [0, %d)" what id bound)
  in
  (* Rebuild the instance.  Ids are checked in file order, so the first
     offending line is the one reported; values are then stored from the
     last line to the first, so of two lines for one cell the first
     wins. *)
  List.iter (fun (line, (id, _)) -> in_range line "task" id st.tasks)
    (List.rev st.names);
  (* a task without a [task] line keeps the builder's default name, so
     that the schedule prints back to a file that parses *)
  let names = Array.make st.tasks None in
  List.iter (fun (_, (id, name)) -> names.(id) <- Some name) st.names;
  (* [Dag.make]'s checks edge by edge, so each rejection names its line *)
  let b = Dag.Builder.create () in
  Array.iter (fun name -> ignore (Dag.Builder.add_task ?name b)) names;
  List.iter
    (fun (line, (src, dst, volume)) ->
      try Dag.Builder.add_edge b ~src ~dst ~volume
      with Invalid_argument msg ->
        (* "Dag.Builder.add_edge: <reason>" *)
        let reason = List.hd (List.rev (String.split_on_char ':' msg)) in
        fail line ("bad edge:" ^ reason))
    (List.rev st.edges);
  let dag =
    match Dag.Builder.build b with
    | dag -> dag
    | exception Dag.Cycle cycle ->
        (* reported at the cycle's last edge in file order *)
        let closed = cycle @ [ List.hd cycle ] in
        let line_of u v =
          fst (List.find (fun (_, (s, d, _)) -> s = u && d = v) st.edges)
        in
        let lines = List.map2 line_of cycle (List.tl closed) in
        fail (List.fold_left max 0 lines)
          ("edge closes the cycle "
          ^ String.concat " -> " (List.map string_of_int closed))
  in
  let delays = Array.make_matrix st.procs st.procs 0. in
  List.iter
    (fun (line, (k, h, d)) ->
      in_range line "delay source processor" k st.procs;
      in_range line "delay destination processor" h st.procs;
      if Float.is_nan d || d < 0. || (k = h && d <> 0.) then
        fail line (Printf.sprintf "invalid delay %g from P%d to P%d" d k h))
    (List.rev st.delays);
  List.iter (fun (_, (k, h, d)) -> delays.(k).(h) <- d) st.delays;
  let platform =
    match (st.links, List.rev st.routes) with
    | None, [] -> Platform.create ~delays
    | None, (line, _) :: _ -> fail line "route line without a 'links' count"
    | Some (links_line, count), routes ->
        let m = st.procs in
        if count < 0 || count > m * m then
          fail links_line
            (Printf.sprintf "link count %d not in [0, %d]" count (m * m));
        let table = Array.make_matrix m m None in
        List.iter
          (fun (line, (k, h, ids)) ->
            in_range line "route source processor" k m;
            in_range line "route destination processor" h m;
            if k = h then
              fail line (Printf.sprintf "route from P%d to itself" k);
            List.iter (fun l -> in_range line "link" l count) ids;
            if table.(k).(h) = None then table.(k).(h) <- Some ids)
          routes;
        let routes =
          Array.init m (fun k ->
              Array.init m (fun h ->
                  match table.(k).(h) with
                  | Some ids -> ids
                  | None when k = h -> []
                  | None ->
                      fail links_line
                        (Printf.sprintf "no route from P%d to P%d" k h)))
        in
        Platform.routed ~delays ~link_count:count ~routes
  in
  let matrix = Array.make_matrix st.tasks st.procs 0. in
  List.iter
    (fun (line, (t, p, _)) ->
      in_range line "cost task" t st.tasks;
      in_range line "cost processor" p st.procs)
    (List.rev st.costs);
  List.iter (fun (_, (t, p, c)) -> matrix.(t).(p) <- c) st.costs;
  let costs = Costs.of_matrix dag platform matrix in
  let check_supply (line, supply) =
    match supply with
    | Schedule.Local { l_pred; _ } ->
        in_range line "predecessor task" l_pred st.tasks
    | Schedule.Message m ->
        let s = m.Netstate.m_source in
        in_range line "predecessor task" s.Netstate.s_task st.tasks;
        in_range line "source processor" s.Netstate.s_proc st.procs;
        in_range line "destination processor" m.Netstate.m_dst_proc st.procs
  in
  (* in line order, so the first offending line is the one reported *)
  Hashtbl.fold (fun _ lines acc -> List.rev_append lines acc) st.supplies []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.iter check_supply;
  (* the shape checks of [Schedule.create], each reported at the first
     offending replica line; a task missing a replica has no line of its
     own and is reported at [end] *)
  let placed = Hashtbl.create 64 and count = Array.make st.tasks 0 in
  Hashtbl.fold (fun (task, idx) (line, (_, _, proc)) acc ->
      (line, (task, idx, proc)) :: acc)
    st.replicas []
  |> List.sort compare
  |> List.iter (fun (line, (task, idx, proc)) ->
         in_range line "replica task" task st.tasks;
         in_range line "replica processor" proc st.procs;
         if idx < 0 || idx > st.epsilon then
           fail line
             (Printf.sprintf "replica index %d not in 0..%d" idx st.epsilon);
         (match Hashtbl.find_opt placed (task, proc) with
         | Some other ->
             fail line
               (Printf.sprintf "replica %d of task %d shares P%d with line %d"
                  idx task proc other)
         | None -> Hashtbl.add placed (task, proc) line);
         count.(task) <- count.(task) + 1);
  Array.iteri
    (fun task n ->
      if n <> st.epsilon + 1 then
        fail !end_line
          (Printf.sprintf "task %d has %d replicas, expected %d" task n
             (st.epsilon + 1)))
    count;
  let replicas =
    Hashtbl.fold
      (fun (task, idx) (_, (start, finish, proc)) acc ->
        {
          Schedule.r_task = task;
          r_index = idx;
          r_proc = proc;
          r_start = start;
          r_finish = finish;
          r_inputs =
            List.rev_map snd
              (Option.value (Hashtbl.find_opt st.supplies (task, idx)) ~default:[]);
        }
        :: acc)
      st.replicas []
  in
  Schedule.create ~algorithm:st.algorithm
    ~epsilon:st.epsilon ~model:st.pmodel ~costs replicas

(* every shape check above names its line; what is left to raise (an
   array size beyond the runtime's limit) has no line of its own *)
let of_string text =
  try parse text
  with Invalid_argument message -> raise (Parse_error { line = 0; message })

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      really_input_string ic len)
  |> of_string
