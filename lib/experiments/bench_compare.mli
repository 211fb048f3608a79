(** Regression diff between two [ftsched/bench/v1] documents.

    Backs [ftsched benchdiff OLD NEW]: the committed
    [BENCH_schedulers.json] is the baseline, a fresh quick-bench run is
    the candidate, and a change beyond the threshold in a metric's bad
    direction (slower ns/op, fewer scenarios/s) is a regression.  Only
    keys present in both documents are compared, so the diff is robust
    to benches that were skipped on one side ([--quick], machine
    class). *)

type direction = Higher_better | Lower_better

type entry = {
  e_key : string;  (** e.g. ["replay/m=50 compiled_ns_per_scenario"] *)
  e_old : float;
  e_new : float;
  e_change_pct : float;
      (** signed, in the metric's bad direction: positive = got worse *)
  e_direction : direction;
}

type result = {
  c_threshold_pct : float;
  c_filter : string option;  (** the [filter] of {!compare_docs} *)
  c_entries : entry list;  (** keys present on both sides, in old order *)
  c_only_old : string list;
  c_only_new : string list;
}

val compare_docs : ?filter:string -> threshold_pct:float -> Json.t -> Json.t -> result
(** [filter] keeps only metrics whose key contains the given substring
    (e.g. ["batched"] for the batched-replay gate, or ["sched_scale"]
    for the scheduler scaling-efficiency gate — both blocked on in CI) —
    both sides are filtered, so "only in old/new" reporting stays
    scoped.  Machine-dependent absolute throughputs are published under
    prefixes outside the gating filters (e.g. ["sched_throughput/"]), so
    they show in an unfiltered diff but never block. *)

val regressions : result -> entry list
(** Entries at or beyond the threshold in the bad direction. *)

val improvements : result -> entry list

val vacuous : result -> bool
(** A filtered comparison with no key on both sides.  The gate it backs
    compares nothing, so [ftsched benchdiff] fails on it like on a
    regression.  Keys on one side only never make a comparison vacuous
    by themselves. *)

val to_table : result -> Text_table.t
(** [metric | old | new | change | verdict] rows. *)

val summary : result -> string
(** One-line verdict count for logs and CI step output. *)
