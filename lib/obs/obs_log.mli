(** Leveled structured logging to stderr.

    Replaces the scattered [Printf.eprintf] progress callbacks: the level
    is read from the [FTSCHED_LOG] environment variable
    ([debug], [info], [warn] or [quiet]; default [info]), so
    [FTSCHED_LOG=quiet] silences every progress line — cram tests and
    batch jobs get clean stderr — while the default output stays
    byte-identical to the historical [eprintf] format. *)

val progress : string -> unit
(** The campaign/bench progress format, verbatim:
    [Printf.eprintf "  %s\n%!"] at [Info] level. *)

val debug : ('a, out_channel, unit) format -> 'a
val info : ('a, out_channel, unit) format -> 'a
(** Printf-style, prefixed with [ftsched: [level] ] and newline-
    terminated.  Arguments are still consumed when the level is off
    (via [ifprintf]) but nothing is formatted or written. *)
