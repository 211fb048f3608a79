(* CAFT, Algorithm 5.1: list scheduling in dynamic [tl + bl] priority
   order, each task placed by the one-to-one/full-replication engine
   (Algorithm 5.2 with the support-set strengthening — see Caft_engine). *)

let algorithm_name ~one_to_one ~model =
  Netstate.algorithm_name (if one_to_one then "CAFT" else "CAFT-full") model

(* The Algorithm 5.1 list-scheduling loop, shared by the in-memory and
   streaming entry points (which differ only in engine construction and
   in how the placements leave the engine). *)
let place_all engine ~rng costs =
  let prio =
    Obs_prof.phase ~trace:false ~cat:"sched" "caft.priorities" (fun () ->
        Obs_trace.with_span ~cat:"sched" "priorities" (fun () ->
            Prio.create ~rng costs))
  in
  let rec loop () =
    match Prio.pop prio with
    | None ->
        if not (Prio.is_done prio) then
          failwith "Caft.run: no free task but tasks remain (DAG inconsistency)"
    | Some task ->
        Obs_trace.with_span ~cat:"sched" "place"
          ~args:(fun () -> [ ("task", Json.Int task) ])
          (fun () -> Caft_engine.schedule_task engine task);
        Prio.mark_scheduled prio task
          ~completion:(Caft_engine.completion_lower engine task);
        loop ()
  in
  Obs_prof.phase ~trace:false ~cat:"sched" "caft.place" loop

let run ?(model = Netstate.One_port) ?(one_to_one = true) ?(seed = 42) ~epsilon
    costs =
  let engine = Caft_engine.create ~model ~one_to_one ~epsilon costs in
  place_all engine ~rng:(Rng.create seed) costs;
  let name = algorithm_name ~one_to_one ~model in
  Obs_prof.phase ~trace:false ~cat:"sched" "caft.freeze" (fun () ->
      Caft_engine.to_schedule ~algorithm:name engine)

let run_stream ?(model = Netstate.One_port) ?(one_to_one = true)
    ?(seed = 42) ~epsilon ~path costs =
  let name = algorithm_name ~one_to_one ~model in
  let writer =
    Schedule_io.stream_writer ~algorithm:name ~epsilon ~model ~path costs
  in
  Fun.protect
    ~finally:(fun () -> Schedule_io.stream_close writer)
    (fun () ->
      let engine =
        Caft_engine.create ~model ~one_to_one
          ~on_place:(Schedule_io.stream_replica writer)
          ~epsilon costs
      in
      place_all engine ~rng:(Rng.create seed) costs)

let fault_free ?model ?seed costs =
  let sched = run ?model ?seed ~epsilon:0 costs in
  Schedule.create ~algorithm:"CAFT-ff" ~epsilon:0 ~model:(Schedule.model sched)
    ~costs:(Schedule.costs sched)
    (Schedule.all_replicas sched)
