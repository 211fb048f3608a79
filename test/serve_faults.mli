(** Self-fault-injection harness for the serve daemon.

    Drives the {!Serve_server} admit/step state machine {e in process}
    with a seeded stream of hostile and well-formed frames — malformed
    JSON, wrong field types, unknown ops and parameters, oversized
    payloads, zero deadlines, shedding bursts, duplicate requests — and
    checks the daemon's contract after every one:

    - [admit] and [step] never raise;
    - every frame yields exactly one response, and that response parses
      as a protocol frame (never raw text, never silence);
    - error responses carry a recognized error class;
    - a repeated request is served from cache ([cached = true]) with a
      [result] member byte-identical to the first answer;
    - a queue burst past capacity sheds with [overloaded], and the
      daemon keeps answering afterwards.

    Deterministic in [seed]: the same seed replays the same attack. *)

type report = {
  fr_frames : int;  (** frames injected *)
  fr_ok : int;  (** ok responses *)
  fr_errors : int;  (** structured error responses *)
  fr_cache_hits : int;  (** responses served with [cached = true] *)
  fr_shed : int;  (** [overloaded] responses from the burst phase *)
  fr_violations : string list;  (** contract breaches; empty = pass *)
}

val run : ?frames:int -> seed:int -> unit -> report
(** Inject [frames] (default 200) adversarial frames against a fresh
    in-memory daemon. *)

val pp : Format.formatter -> report -> unit
