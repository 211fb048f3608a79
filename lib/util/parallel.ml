let available_domains () = Domain.recommended_domain_count ()

(* -- work-stealing telemetry -------------------------------------------- *)

type worker_stats = {
  ws_worker : int;
  ws_items : int;
  ws_busy_s : float;
  ws_idle_s : float;
  ws_steal_attempts : int;
}

type map_stats = {
  ms_items : int;
  ms_domains : int;
  ms_wall_s : float;
  ms_workers : worker_stats list;
}

(* The monitor is observability's window into the work-stealing loop: the
   obs layer installs a callback here (util cannot depend on obs).  When
   unset, [map] runs the uninstrumented loop — no clock reads per item. *)
let monitor : (map_stats -> unit) option Atomic.t = Atomic.make None
let set_monitor cb = Atomic.set monitor cb
let now = Unix.gettimeofday

(* -- fork-join map ------------------------------------------------------ *)

(* The worker slot a [map] spawned the running domain for; [0] on every
   domain no [map] spawned. *)
let slot_key = Domain.DLS.new_key (fun () -> 0)
let worker_slot () = Domain.DLS.get slot_key

(* Every worker runs the same claim loop over an atomic index: it claims
   the next unprocessed item, so a slow item delays only itself.  The
   caller is worker slot 0; the others are domains spawned for this call
   and joined before it returns.  A worker stops at its own exception and
   the survivors drain the unclaimed items — each spawned domain enters
   the loop by itself, so no barrier is needed for a late starter to
   still find work. *)
let map ?domains f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let size =
      min n (Option.fold ~none:(available_domains ()) ~some:(max 1) domains)
    in
    let report = Atomic.get monitor in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let first_exn : exn option Atomic.t = Atomic.make None in
    let stats = Array.make size None in
    (* a worker stops at its own exception: it claims no further item *)
    let failed exn =
      ignore (Atomic.compare_and_set first_exn None (Some exn))
    in
    let plain_run _slot =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then
          match f arr.(i) with
          | v ->
              results.(i) <- Some v;
              loop ()
          | exception exn -> failed exn
      in
      loop ()
    in
    (* the monitored loop adds two clock reads per item *)
    let monitored_run slot =
      let t_start = now () in
      let busy = ref 0. and items = ref 0 and attempts = ref 0 in
      let rec loop () =
        incr attempts;
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let t0 = now () in
          match f arr.(i) with
          | v ->
              results.(i) <- Some v;
              busy := !busy +. (now () -. t0);
              incr items;
              loop ()
          | exception exn ->
              busy := !busy +. (now () -. t0);
              failed exn
        end
      in
      loop ();
      let wall = now () -. t_start in
      stats.(slot) <-
        Some
          {
            ws_worker = slot;
            ws_items = !items;
            ws_busy_s = !busy;
            ws_idle_s = Float.max 0. (wall -. !busy);
            ws_steal_attempts = !attempts;
          }
    in
    let run = match report with None -> plain_run | Some _ -> monitored_run in
    let t_begin = now () in
    (* [run] never lets an exception escape, so only a failing
       [Domain.spawn] can interrupt the fork; the workers already spawned
       are joined before it propagates. *)
    let spawned = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !spawned)
      (fun () ->
        for slot = 1 to size - 1 do
          spawned :=
            Domain.spawn (fun () ->
                Domain.DLS.set slot_key slot;
                run slot)
            :: !spawned
        done;
        run 0);
    (match report with
    | Some report ->
        report
          {
            ms_items = n;
            ms_domains = size;
            ms_wall_s = now () -. t_begin;
            ms_workers = List.filter_map Fun.id (Array.to_list stats);
          }
    | None -> ());
    match Atomic.get first_exn with
    | Some exn -> raise exn
    | None -> List.init n (fun i -> Option.get results.(i))
  end
