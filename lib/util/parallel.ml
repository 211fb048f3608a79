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
   unset, [map_pool] runs the uninstrumented loop — no clock reads per
   item. *)
let monitor : (map_stats -> unit) option Atomic.t = Atomic.make None
let set_monitor cb = Atomic.set monitor cb
let now = Unix.gettimeofday

(* -- persistent worker pool --------------------------------------------- *)

(* A pool keeps its spawned domains alive across map calls, so a campaign
   of thousands of small blocks pays the domain spawn/teardown cost once
   instead of once per call.  One job runs at a time; idle workers park on
   a condition variable between jobs.  Each job is a work-stealing claim
   loop over an atomic index, type-erased behind a closure so one pool
   serves maps of any element type: every worker claims the next
   unprocessed item, so a slow item delays only itself.  [map] is a pool
   that lives for one call. *)

type job = {
  j_epoch : int;
  j_run : int -> unit; (* claim loop, given the worker's slot *)
}

type pool = {
  p_size : int; (* workers including the calling domain (slot 0) *)
  p_lock : Mutex.t;
  p_wake : Condition.t; (* workers: a new job or shutdown is available *)
  p_done : Condition.t; (* caller: a participant left the current job *)
  mutable p_epoch : int; (* bumped once per job *)
  mutable p_job : job option;
  mutable p_active : int; (* participants currently inside the job *)
  mutable p_slot : int; (* next worker slot for the current job *)
  mutable p_stop : bool;
  mutable p_busy : bool; (* a map_pool call is in flight *)
  mutable p_workers : unit Domain.t list;
}

let pool_worker pool =
  (* [seen] is the last epoch this worker participated in.  Every worker
     joins every job exactly once: the caller holds the job open until
     all [p_size] slots have joined and left, so a late waker still finds
     [p_job] set.  That guarantee is what lets survivors drain the items
     left unclaimed when another participant stopped on an exception. *)
  let rec wait_for_job seen =
    Mutex.lock pool.p_lock;
    while (not pool.p_stop) && (pool.p_epoch = seen || Option.is_none pool.p_job) do
      Condition.wait pool.p_wake pool.p_lock
    done;
    if pool.p_stop then Mutex.unlock pool.p_lock
    else begin
      let job = Option.get pool.p_job in
      let slot = pool.p_slot in
      pool.p_slot <- pool.p_slot + 1;
      pool.p_active <- pool.p_active + 1;
      Mutex.unlock pool.p_lock;
      (* [j_run] never lets an exception escape (user exceptions are
         captured inside the claim loop); one escaping here would wedge
         the pool. *)
      job.j_run slot;
      Mutex.lock pool.p_lock;
      pool.p_active <- pool.p_active - 1;
      if pool.p_active = 0 then Condition.broadcast pool.p_done;
      Mutex.unlock pool.p_lock;
      wait_for_job job.j_epoch
    end
  in
  wait_for_job 0

(* Live-pool registry: a pool leaked without [shutdown] must not leave
   domains parked on a condition variable at process exit, so every pool
   registers here and [shutdown_all] — armed once via [at_exit] — joins
   whatever the program forgot.  Guarded by its own mutex: registration
   and teardown are rare (pool lifetime, not job) events. *)
let live_lock = Mutex.create ()
let live : pool list ref = ref []
let exit_hook_armed = ref false

let unregister p =
  Mutex.lock live_lock;
  live := List.filter (fun q -> q != p) !live;
  Mutex.unlock live_lock

let pool ?domains () =
  let size =
    match domains with Some d -> max 1 d | None -> available_domains ()
  in
  let p =
    {
      p_size = size;
      p_lock = Mutex.create ();
      p_wake = Condition.create ();
      p_done = Condition.create ();
      p_epoch = 0;
      p_job = None;
      p_active = 0;
      p_slot = 0;
      p_stop = false;
      p_busy = false;
      p_workers = [];
    }
  in
  p.p_workers <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> pool_worker p));
  Mutex.lock live_lock;
  live := p :: !live;
  if not !exit_hook_armed then begin
    exit_hook_armed := true;
    (* registered lazily so programs that never build a pool get no hook *)
    at_exit (fun () ->
        let ps = Mutex.protect live_lock (fun () -> !live) in
        List.iter
          (fun p ->
            Mutex.lock p.p_lock;
            p.p_stop <- true;
            Condition.broadcast p.p_wake;
            Mutex.unlock p.p_lock;
            List.iter Domain.join p.p_workers;
            p.p_workers <- [])
          ps;
        Mutex.protect live_lock (fun () -> live := []))
  end;
  Mutex.unlock live_lock;
  p

let pool_size p = p.p_size

let shutdown p =
  Mutex.lock p.p_lock;
  p.p_stop <- true;
  Condition.broadcast p.p_wake;
  Mutex.unlock p.p_lock;
  List.iter Domain.join p.p_workers;
  p.p_workers <- [];
  unregister p

let live_pools () = Mutex.protect live_lock (fun () -> List.length !live)

let map_pool p f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let report = Atomic.get monitor in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let first_exn : exn option Atomic.t = Atomic.make None in
    let stats = Array.make p.p_size None in
    (* A worker stops at its own exception and the survivors finish the
       unclaimed items; the monitored loop adds two clock reads per
       item. *)
    let plain_run _slot =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match f arr.(i) with
          | v -> results.(i) <- Some v
          | exception exn ->
              ignore (Atomic.compare_and_set first_exn None (Some exn));
              raise_notrace Exit);
          loop ()
        end
      in
      try loop () with Exit -> ()
    in
    let monitored_run slot =
      let t_start = now () in
      let busy = ref 0. and items = ref 0 and attempts = ref 0 in
      let rec loop () =
        incr attempts;
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let t0 = now () in
          (match f arr.(i) with
          | v ->
              results.(i) <- Some v;
              busy := !busy +. (now () -. t0);
              incr items;
              loop ()
          | exception exn ->
              ignore (Atomic.compare_and_set first_exn None (Some exn));
              busy := !busy +. (now () -. t0);
              raise_notrace Exit)
        end
      in
      (try loop () with Exit -> ());
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
    Mutex.lock p.p_lock;
    if p.p_stop then begin
      Mutex.unlock p.p_lock;
      invalid_arg "Parallel.map_pool: pool is shut down"
    end;
    if p.p_busy then begin
      Mutex.unlock p.p_lock;
      invalid_arg "Parallel.map_pool: pool is already running a job"
    end;
    p.p_busy <- true;
    p.p_epoch <- p.p_epoch + 1;
    p.p_job <- Some { j_epoch = p.p_epoch; j_run = run };
    p.p_slot <- 1;
    p.p_active <- p.p_active + 1 (* the caller itself *);
    Condition.broadcast p.p_wake;
    Mutex.unlock p.p_lock;
    (* The caller is worker slot 0: it participates instead of blocking. *)
    run 0;
    Mutex.lock p.p_lock;
    p.p_active <- p.p_active - 1;
    (* Hold the job open until every pool worker has joined ([p_slot]
       counts joins, the caller included) AND left the claim loop.  The
       join half matters for the exception contract: if the only active
       participant dies on [f] while a parked worker has not woken yet,
       that worker must still enter the job and drain the unclaimed
       items. *)
    while p.p_slot < p.p_size || p.p_active > 0 do
      Condition.wait p.p_done p.p_lock
    done;
    p.p_job <- None;
    p.p_busy <- false;
    Mutex.unlock p.p_lock;
    (match report with
    | Some report ->
        report
          {
            ms_items = n;
            ms_domains = p.p_size;
            ms_wall_s = now () -. t_begin;
            ms_workers = List.filter_map Fun.id (Array.to_list stats);
          }
    | None -> ());
    match Atomic.get first_exn with
    | Some exn -> raise exn
    | None ->
        Array.to_list
          (Array.map (function Some v -> v | None -> assert false) results)
  end

let map ?domains f xs =
  let domains =
    match domains with Some d -> max 1 d | None -> available_domains ()
  in
  let p = pool ~domains:(min domains (List.length xs)) () in
  Fun.protect ~finally:(fun () -> shutdown p) (fun () -> map_pool p f xs)
