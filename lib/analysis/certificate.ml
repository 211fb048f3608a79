type t = {
  c_algorithm : string;
  c_epsilon : int;
  c_procs : int;
  c_tasks : int;
  c_resists : bool;
  c_verdicts : Resilience.task_verdict array;
}

let of_report sched (report : Resilience.report) =
  {
    c_algorithm = Schedule.algorithm sched;
    c_epsilon = report.Resilience.rs_epsilon;
    c_procs = Platform.proc_count (Schedule.platform sched);
    c_tasks = Dag.task_count (Schedule.dag sched);
    c_resists = report.Resilience.rs_resists;
    c_verdicts = report.Resilience.rs_tasks;
  }

(* -- JSON -------------------------------------------------------------- *)

let verdict_to_json task verdict =
  let open Json in
  let base = [ ("task", Int task) ] in
  match verdict with
  | Resilience.Certified (Resilience.Disjoint_supports supports) ->
      Obj
        (base
        @ [
            ("verdict", String "certified");
            ("witness", String "disjoint-supports");
            ( "supports",
              List
                (Array.to_list supports
                |> List.map (fun s ->
                       List (List.map (fun p -> Int p) (Bitset.elements s)))) );
          ])
  | Resilience.Certified Resilience.Min_cut ->
      Obj
        (base
        @ [ ("verdict", String "certified"); ("witness", String "min-cut") ])
  | Resilience.Refuted crashed ->
      Obj
        (base
        @ [
            ("verdict", String "refuted");
            ("crash", List (List.map (fun p -> Json.Int p) crashed));
          ])

let to_json c =
  let open Json in
  Obj
    [
      ("certificate", String "ftsched/epsilon-resistance");
      ("version", Int 1);
      ("algorithm", String c.c_algorithm);
      ("epsilon", Int c.c_epsilon);
      ("processors", Int c.c_procs);
      ("tasks", Int c.c_tasks);
      ("resists", Bool c.c_resists);
      ( "verdicts",
        List (Array.to_list (Array.mapi verdict_to_json c.c_verdicts)) );
    ]

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "certificate: missing or ill-typed %S" name)

(* [f] over [xs], stopping at the first [Error] *)
let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* a list of processor ids, each an integer in [0, procs) *)
let proc_ids ~procs name = function
  | Json.List items ->
      map_result
        (function
          | Json.Int p when p >= 0 && p < procs -> Ok p
          | v ->
              Error
                (Printf.sprintf "certificate: %S holds %s, not an id in [0, %d)"
                   name (Json.to_string v) procs))
        items
  | _ -> Error (Printf.sprintf "certificate: %S is not a list" name)

let verdict_of_json ~procs json =
  let* verdict = field "verdict" Json.to_str json in
  match verdict with
  | "refuted" ->
      let* crash = field "crash" Option.some json in
      let* crashed = proc_ids ~procs "crash" crash in
      Ok (Resilience.Refuted crashed)
  | "certified" -> (
      let* witness = field "witness" Json.to_str json in
      match witness with
      | "min-cut" -> Ok (Resilience.Certified Resilience.Min_cut)
      | "disjoint-supports" ->
          let* sets =
            field "supports" (function Json.List l -> Some l | _ -> None) json
          in
          let* supports =
            map_result
              (fun set ->
                let* ids = proc_ids ~procs "supports" set in
                Ok (Bitset.of_list procs ids))
              sets
          in
          Ok
            (Resilience.Certified
               (Resilience.Disjoint_supports (Array.of_list supports)))
      | other -> Error (Printf.sprintf "certificate: unknown witness %S" other))
  | other -> Error (Printf.sprintf "certificate: unknown verdict %S" other)

let of_json json =
  let* kind = field "certificate" Json.to_str json in
  let* () =
    if kind = "ftsched/epsilon-resistance" then Ok ()
    else Error "certificate: not an epsilon-resistance certificate"
  in
  let* algorithm = field "algorithm" Json.to_str json in
  let* epsilon = field "epsilon" Json.to_int json in
  let* procs = field "processors" Json.to_int json in
  let* () =
    if procs >= 1 then Ok ()
    else Error "certificate: \"processors\" must be at least 1"
  in
  let* tasks = field "tasks" Json.to_int json in
  let* resists = field "resists" Json.to_bool json in
  match Json.member "verdicts" json with
  | Some (Json.List items) ->
      let* () =
        if List.length items = tasks then Ok ()
        else Error "certificate: verdict count does not match task count"
      in
      let* verdicts = map_result (verdict_of_json ~procs) items in
      Ok
        {
          c_algorithm = algorithm;
          c_epsilon = epsilon;
          c_procs = procs;
          c_tasks = tasks;
          c_resists = resists;
          c_verdicts = Array.of_list verdicts;
        }
  | _ -> Error "certificate: missing verdicts"

(* -- re-verification --------------------------------------------------- *)

let check sched c =
  let dag = Schedule.dag sched in
  let m = Platform.proc_count (Schedule.platform sched) in
  let v = Dag.task_count dag in
  let eps1 = Schedule.epsilon sched + 1 in
  let* () =
    if c.c_procs = m && c.c_tasks = v then Ok ()
    else Error "certificate was issued for a different schedule shape"
  in
  let* () =
    if Array.length c.c_verdicts = v then Ok ()
    else Error "certificate verdict count does not match the task count"
  in
  let refuted_somewhere =
    Array.exists (function Resilience.Refuted _ -> true | _ -> false)
      c.c_verdicts
  in
  let* () =
    if c.c_resists = not refuted_somewhere then Ok ()
    else Error "certificate verdicts contradict its resists flag"
  in
  (* lazily re-certify once if any Min_cut verdict needs confirmation *)
  let recert = lazy (Resilience.certify ~epsilon:c.c_epsilon sched) in
  let check_task task verdict =
    match verdict with
    | Resilience.Refuted crashed ->
        if List.length crashed > c.c_epsilon then
          Error
            (Printf.sprintf "task %d: refuting crash set larger than epsilon"
               task)
        else if
          List.mem task (Resilience.starved_tasks sched ~crashed)
        then Ok ()
        else
          Error
            (Printf.sprintf
               "task %d: claimed refutation does not starve the task" task)
    | Resilience.Certified (Resilience.Disjoint_supports supports) ->
        let n = Array.length supports in
        if n < c.c_epsilon + 1 then
          Error
            (Printf.sprintf "task %d: only %d supports for epsilon %d" task n
               c.c_epsilon)
        else if n > eps1 then
          Error
            (Printf.sprintf "task %d: more supports than replicas" task)
        else begin
          let disjoint = ref true in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              if not (Bitset.disjoint supports.(i) supports.(j)) then
                disjoint := false
            done
          done;
          if not !disjoint then
            Error (Printf.sprintf "task %d: supports are not disjoint" task)
          else begin
            (* survival is monotone: surviving the crash of the whole
               complement proves survival of every crash set avoiding the
               support *)
            let bad = ref None in
            Array.iteri
              (fun i s ->
                if !bad = None then begin
                  let crashed = Bitset.complement_elements s in
                  let alive = Resilience.survivors sched ~crashed in
                  if not alive.(task).(i) then bad := Some i
                end)
              supports;
            match !bad with
            | None -> Ok ()
            | Some i ->
                Error
                  (Printf.sprintf
                     "task %d: replica %d dies under the complement of its \
                      claimed support"
                     task i)
          end
        end
    | Resilience.Certified Resilience.Min_cut -> (
        match (Lazy.force recert).Resilience.rs_tasks.(task) with
        | Resilience.Certified _ -> Ok ()
        | Resilience.Refuted _ ->
            Error
              (Printf.sprintf
                 "task %d: re-certification refutes the min-cut verdict" task))
  in
  let rec go task =
    if task >= v then Ok ()
    else
      let* () = check_task task c.c_verdicts.(task) in
      go (task + 1)
  in
  go 0
