(** Global, domain-safe metrics registry: counters, gauges, histograms.

    The scheduler's claims are about decisions — one-to-one heads vs.
    full-replication fallbacks, one-port serialization, message traffic —
    so the hot layers register named metrics once (at module
    initialization) and record into them from wherever the decision is
    made, including worker domains spawned by [Parallel.map].

    Recording is disabled by default and costs one atomic load per call
    when off, so instrumentation can stay in the hot paths permanently.
    Enable with {!set_enabled} (the CLI's [--metrics]) or by setting the
    [FTSCHED_METRICS] environment variable to anything but [0] or
    [false].

    Domain safety: the registry is sharded per domain.  A handle is a
    stable slot id; every domain records into plain (non-atomic) cells of
    its own DLS-local shard, so hot-path increments perform no shared-
    memory synchronization at all — no mutex, no CAS, no shared cache
    line.  Readers ({!dump}, {!find}, {!to_json}) aggregate across shards
    on demand; shards of terminated domains are folded into a retained
    base before [Domain.join] returns, so post-join reads are exact (see
    DESIGN.md, "Sharded metrics").  Registration is idempotent —
    re-registering a name returns the existing metric — and raises
    [Invalid_argument] only if the name is reused with a different kind.

    Gauge semantics under sharding: {!add} accumulates shard-locally and
    aggregates as the sum over domains; {!set} records a global
    last-write-wins value.  A gauge should use one or the other (every
    gauge in the tree does); mixing them reads as last [set] plus all
    [add]s. *)

type counter
type gauge
type histogram

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Registration and recording} *)

val counter : ?help:string -> string -> counter
val incr : ?by:int -> counter -> unit

val gauge : ?help:string -> string -> gauge

val set : gauge -> float -> unit
val add : gauge -> float -> unit
(** Gauges double as float accumulators (e.g. total link-busy time):
    [set] overwrites, [add] is an atomic increment. *)

val histogram : ?buckets:float array -> ?help:string -> string -> histogram
(** [buckets] are strictly increasing upper bounds (default: the
    decades [1e-3 .. 1e4]); an implicit overflow bucket catches the rest.
    Raises [Invalid_argument] if unsorted. *)

val observe : histogram -> float -> unit

(** {1 Reading the registry} *)

type histogram_summary = {
  hs_count : int;
  hs_mean : float;  (** [nan] when empty *)
  hs_stddev : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (float * int) list;
      (** (upper bound, count) per bucket, overflow last as [(infinity, n)] *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

val dump : unit -> (string * string * value) list
(** Every registered metric as [(name, help, value)], sorted by name. *)

val find : string -> value option
(** Current value of one metric by name. *)

val reset : unit -> unit
(** Zero every value across every shard; the registry itself (names,
    buckets, slot ids) survives. *)

val shard_count : unit -> int
(** Number of live per-domain shards (terminated domains' shards have
    been folded away).  Diagnostic; used by the sharding tests. *)

val to_table : unit -> Text_table.t
(** [metric | kind | value] rows, histogram values summarized inline. *)

val to_json : unit -> Json.t
(** Machine-readable dump ([ftsched/metrics/v1]): round-trips through
    [Util.Json] and is appended to campaign/bench reports. *)
