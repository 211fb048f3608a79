(** Content-addressed result cache with a crash-safe journal.

    The daemon's redundancy story mirrors the schedules it serves:
    results live in memory (fast path) {e and} in an append-only journal
    on disk (durable path), so a [kill -9] costs re-execution time for
    at most the entry being written — never correctness.

    Keys are {!Fingerprint} hex digests of the canonical request
    parameters (which pin the DAG, platform and ε — the
    generators are deterministic in the seed).  Values are the
    {e rendered} result-JSON bytes: a hit re-serves the exact bytes the
    original computation produced, which is what makes the
    cached-vs-fresh differential test byte-exact.

    Durability protocol:
    - {!add} appends one complete JSON line to the journal and flushes
      it.  A crash mid-append leaves a torn final line;
    - loading ({!journaled} with [~resume:true]) replays the journal and
      {e stops} at the first undecodable line, counting the remainder as
      skipped — a torn tail is expected damage, not corruption worth
      dying over;
    - {!compact} rewrites the journal as a deduplicated snapshot via the
      atomic temp-file + rename dance (the campaign-checkpoint idiom),
      run at graceful shutdown. *)

type t

type recovery = {
  rc_entries : int;  (** entries replayed into memory *)
  rc_skipped : int;  (** journal lines dropped (torn tail) *)
}

val in_memory : ?max_entries:int -> unit -> t
(** Cache without a journal (no [--cache] directory given).  Warm
    restart is then impossible, everything else works. *)

val journaled :
  ?max_entries:int -> resume:bool -> string -> (t * recovery, string) result
(** [journaled ~resume path] opens the journal at [path].  With
    [resume = true] an existing journal is replayed first; with
    [resume = false] the file must not exist ([Error] tells the caller
    to pass [--resume] or remove it — silently clobbering a previous
    daemon's state would be a data-loss footgun).  [max_entries]
    (default 4096) bounds memory: once full, new results are served but
    no longer cached. *)

val find : t -> key:string -> string option
(** The rendered result bytes for [key]; counts a hit or a miss. *)

val add : t -> key:string -> op:string -> string -> unit
(** Record a freshly computed result: in memory, then one flushed
    journal line.  Re-adding an existing key is a no-op (first write
    wins — results are deterministic, so the bytes are equal anyway). *)

val entries : t -> int
val hits : t -> int
val misses : t -> int

val compact : t -> unit
(** Snapshot the in-memory table over the journal atomically
    (temp + rename) and reopen it for appending.  No-op in memory-only
    mode. *)

val close : t -> unit
(** Compact and close the journal.  The cache must not be used after. *)
