(** Minimal deterministic fork-join parallelism over OCaml 5 domains. *)

val available_domains : unit -> int
(** Recommended domain count for this machine
    ([Domain.recommended_domain_count]). *)

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f xs] is [List.map f xs], computed by
    [min domains (List.length xs)] workers (default {!available_domains};
    clamped to at least [1]).  Worker [0] is the calling domain; the
    others are domains spawned for this call and joined before it returns
    or re-raises, so [1] spawns nothing and runs the items in order.
    Items are claimed one at a time through an atomic index, so one slow
    item delays only itself.  Result order is that of [xs] regardless of
    which domain computed which item; [f] must not rely on shared mutable
    state.  If some application of [f] raises, one such exception is
    re-raised after all workers finished (items not yet claimed when a
    worker dies are still computed by the surviving workers). *)

val worker_slot : unit -> int
(** The worker slot that {!map} spawned the running domain for, or [0]
    on a domain that no [map] spawned — the caller's slot.  Each wave of
    a repeated map spawns fresh domains, but the same slots, so
    per-worker accounting keyed by slot has one row per worker. *)

(** {1 Work-stealing telemetry}

    Per-worker accounting of one non-empty {!map} call, reported to the
    installed {!set_monitor} callback.  Worker [0] is the calling domain;
    workers [1..] are the spawned ones.  [ws_busy_s] is wall time spent
    inside [f]; [ws_idle_s] is the rest of the worker's loop (claim
    contention, spawn skew, scheduler preemption); [ws_steal_attempts]
    counts claims on the shared index including the final failed one. *)

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

val set_monitor : (map_stats -> unit) option -> unit
(** Install (or clear) the telemetry callback.  With no monitor installed
    — the default — maps run an uninstrumented loop with no clock reads
    per item.  The callback runs on the calling domain after all workers
    were joined, before the map returns or re-raises.  The obs layer's
    profiler is the intended installer; last install wins. *)
