(* Windowed CAFT (Section 7): among the [window] highest-priority free
   tasks, schedule the one whose best first-replica placement finishes
   earliest under the current network state. *)

let run ?(model = Netstate.One_port) ?(seed = 42) ?(window = 10)
    ~epsilon costs =
  if window < 1 then invalid_arg "Caft_batch.run: window < 1";
  let engine = Caft_engine.create ~model ~epsilon costs in
  let rng = Rng.create seed in
  let prio = Prio.create ~rng costs in
  (* The window is maintained outside Prio: tasks popped from the
     priority list wait here until actually scheduled. *)
  let pending = ref [] in
  let refill () =
    while List.length !pending < window && Prio.free_count prio > 0 do
      match Prio.pop prio with
      | Some task -> pending := task :: !pending
      | None -> ()
    done
  in
  let rec loop () =
    refill ();
    match !pending with
    | [] ->
        if not (Prio.is_done prio) then
          failwith "Caft_batch.run: no free task but tasks remain"
    | candidates ->
        (* pick the window task that best fits the current state *)
        let best =
          List.fold_left
            (fun best task ->
              let finish = Caft_engine.estimate_finish engine task in
              match best with
              | Some (bf, _) when bf <= finish -> best
              | _ -> Some (finish, task))
            None candidates
        in
        let task = match best with Some (_, t) -> t | None -> assert false in
        Caft_engine.schedule_task engine task;
        pending := List.filter (fun t -> t <> task) !pending;
        Prio.mark_scheduled prio task
          ~completion:(Caft_engine.completion_lower engine task);
        loop ()
  in
  loop ();
  let name =
    match model with
    | Netstate.One_port -> Printf.sprintf "CAFT-batch%d" window
    | Netstate.Macro_dataflow -> Printf.sprintf "CAFT-batch%d-macro" window
    | Netstate.Multiport k -> Printf.sprintf "CAFT-batch%d-mp%d" window k
  in
  Caft_engine.to_schedule ~algorithm:name engine
