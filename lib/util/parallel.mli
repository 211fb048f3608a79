(** Minimal deterministic fork-join parallelism over OCaml 5 domains.

    The experiment campaigns evaluate dozens of independent instances per
    point; {!map} spreads them over domains while keeping the result order
    (hence all downstream aggregation) identical to the sequential run.
    Items are claimed one at a time through an atomic work-stealing index,
    so one slow instance delays only itself — a straggler no longer stalls
    the whole contiguous chunk a domain was pre-assigned. *)

val available_domains : unit -> int
(** Recommended domain count for this machine
    ([Domain.recommended_domain_count]). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs], computed by {!map_pool} on a
    pool of [min domains (List.length xs)] workers (default
    {!available_domains}) that the call creates and shuts down; one
    worker is the calling domain, so [1] spawns nothing and runs the
    items in order.  Result order is that of [xs] regardless of which
    domain computed which item.  [f] must not rely on shared mutable
    state.  If some application of [f] raises, one such exception is
    re-raised after all participants finished (items not yet claimed
    when a worker dies are still computed by the surviving workers). *)

(** {1 Work-stealing telemetry}

    Per-worker accounting of one non-empty [map] or {!map_pool} call,
    reported to the installed {!set_monitor} callback.  Worker [0] is the calling domain; workers
    [1..] are the spawned ones.  [ws_busy_s] is wall time spent inside
    [f]; [ws_idle_s] is the rest of the worker's loop (claim contention,
    spawn skew, scheduler preemption); [ws_steal_attempts] counts claims
    on the shared index including the final failed one. *)

type worker_stats = {
  ws_worker : int;
  ws_items : int;
  ws_busy_s : float;
  ws_idle_s : float;
  ws_steal_attempts : int;
}

type map_stats = {
  ms_items : int;
  ms_domains : int;  (** workers actually used, after clamping *)
  ms_wall_s : float;
  ms_workers : worker_stats list;
}

(** {1 Persistent worker pool}

    [map] spawns and joins its domains on every call, which is fine for a
    handful of big items but dominates the wall clock when a campaign
    issues thousands of small blocks.  A {!pool} spawns its domains once;
    {!map_pool} then reuses them for any number of maps, with the same
    ordering, exception, and telemetry semantics as {!map}. *)

type pool

val pool : ?domains:int -> unit -> pool
(** [pool ~domains ()] spawns [domains - 1] worker domains (default
    {!available_domains}; clamped to at least [1]).  The calling domain is
    always worker slot [0] of every subsequent {!map_pool}, so a pool of
    size [1] spawns nothing and runs maps sequentially on the caller. *)

val pool_size : pool -> int
(** Total workers, including the calling domain. *)

val map_pool : pool -> ('a -> 'b) -> 'a list -> 'b list
(** [map_pool p f xs] is [map ~domains:(pool_size p) f xs] computed on the
    pool's persistent domains (it is [map]'s engine): result order
    follows [xs]; if some
    application of [f] raises, one such exception is re-raised after all
    participants finished (items not yet claimed when a worker dies are
    still computed by the surviving workers); the installed {!set_monitor}
    callback receives the per-worker accounting.  One job
    runs at a time — calling [map_pool] on a pool that is already running
    a job (from [f] itself, or from another domain) raises
    [Invalid_argument].  Not serialized externally: dedicate a pool to one
    orchestrating thread. *)

val shutdown : pool -> unit
(** Terminate and join the pool's domains.  Subsequent {!map_pool} calls
    raise [Invalid_argument]; [shutdown] itself is idempotent.

    Leak safety: a pool that is never shut down does not wedge process
    exit — every live pool is registered at creation and an [at_exit]
    hook (armed by the first [pool] call) stops and joins the forgotten
    workers.  Relying on the hook is still poor hygiene (the domains are
    held until exit); it exists so a crashed or careless caller cannot
    hang the daemon's shutdown path. *)

val live_pools : unit -> int
(** Pools created and not yet shut down — what the exit hook would have
    to clean.  Diagnostic, used by the teardown tests. *)

val set_monitor : (map_stats -> unit) option -> unit
(** Install (or clear) the telemetry callback.  With no monitor installed
    — the default — maps run an uninstrumented loop with no clock reads
    per item.  The callback runs on the calling domain after all workers
    left the job, before the map returns or re-raises.  The obs layer's profiler
    is the intended installer; last install wins. *)
