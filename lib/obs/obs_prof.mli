(** Phase-attribution profiler for parallel replay.

    [phase "replay.eval" f] charges [f]'s wall time, call count and GC
    activity to the (phase, worker) pair that executed it.  The worker is
    {!Parallel.worker_slot} of the executing domain: [Parallel.map]
    spawns fresh domains on every call but reuses its slots, so a scan
    of many waves on [d] domains reports [d] workers, not one per
    spawn.  Slot 0 is the calling domain, and also every domain no map
    spawned; the slots of a map nested in a worker merge with the outer
    map's.  Minor words
    come from [Gc.minor_words], which reads the executing domain's own
    allocation pointer, so that column is exact per domain.  Major words
    and collection counts come from [Gc.quick_stat], which aggregates
    across all domains in OCaml 5 — in a multi-domain run those columns
    measure process-global GC activity observed during the phase, not
    work done by the phase's own domain.  Phases nest:
    wall time is inclusive, self time excludes nested phases, so per
    domain the self times partition the profiled interval.

    Recording is sharded exactly like {!Obs_metrics}: each domain owns a
    DLS-local table of cells, a terminated domain's shard is folded into
    a retired table before [Domain.join] returns, and {!report} merges
    everything under one mutex — so profiling a [Parallel.map] campaign
    costs the workers no shared-memory writes per phase.

    Enabling the profiler also installs a [Parallel.set_monitor]
    callback, so every [Parallel.map] while enabled contributes
    per-worker-slot items, busy time, steal-idle time and steal
    attempts (worker slot 0 is the calling domain).

    Disabled (the default), {!phase} is one atomic load.  When tracing
    is also on, each phase additionally emits an {!Obs_trace} span
    (category ["prof"]), so the same run can be read as a table and as a
    Perfetto timeline. *)

val set_enabled : bool -> unit
(** Also installs (or removes) the [Parallel] telemetry monitor. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Drop all accumulated phases and worker telemetry; re-zero the report
    wall clock. *)

val phase : ?trace:bool -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** [phase name f] runs [f], attributing its execution to [name] on the
    current domain.  Re-raises exceptions; the frame is closed and
    charged either way.  When tracing is on, also emits an
    {!Obs_trace} span named [name] under [cat] (default ["prof"]) —
    whether or not profiling is — so a call site can carry both
    annotations with this one wrapper.  Pass [~trace:false] for
    per-item hot paths that would flood a timeline: the phase is then
    profiled but never traced. *)

(** {1 Reports} *)

type phase_stat = {
  ph_name : string;
  ph_domain : int;  (** worker slot, see above *)
  ph_count : int;
  ph_wall_s : float;  (** inclusive *)
  ph_self_s : float;  (** exclusive of nested phases *)
  ph_minor_words : float;  (** exact for the executing domains *)
  ph_major_words : float;  (** process-global during the phase *)
  ph_minor_collections : int;  (** process-global during the phase *)
  ph_major_collections : int;  (** process-global during the phase *)
}

type worker_stat = {
  wk_worker : int;  (** worker slot; 0 = the domain that called [map] *)
  wk_maps : int;  (** number of [Parallel.map] calls it took part in *)
  wk_items : int;
  wk_busy_s : float;
  wk_idle_s : float;  (** time spent in the steal loop without an item *)
  wk_steal_attempts : int;
}

type report = {
  r_wall_s : float;  (** wall time since {!reset} (or first enable) *)
  r_phases : phase_stat list;  (** sorted by (name, domain) *)
  r_workers : worker_stat list;  (** sorted by worker slot *)
}

val report : unit -> report
(** Aggregate live + retired shards.  Exact for domains already joined;
    a still-running domain's open frame is not yet counted. *)

val to_table : report -> Text_table.t

val to_json : report -> Json.t
(** Schema [ftsched/profile/v1]. *)

val of_json : Json.t -> report option
(** Inverse of {!to_json}; [None] if the schema tag is missing or
    unknown. *)
