(** Polled cooperative cancellation.

    A long-running evaluation (a Monte-Carlo campaign, an exhaustive
    fault check) admitted by the serve daemon must be abandonable when
    its request deadline expires — without wedging the worker, and
    without preemption: the batch loops poll a token at scenario
    granularity and raise {!Cancelled} when it trips.

    Two trip conditions compose in one token: an explicit {!cancel}
    (client disconnected, daemon shutting down) and an absolute
    wall-clock deadline ({!with_deadline}).  Polling an untripped token
    costs one atomic load plus, when a deadline is set, one clock read —
    cheap enough for per-scenario polling, and {!never} short-circuits
    to a constant so instrumented loops pay nothing when cancellation is
    not in play.

    Determinism: cancellation only ever {e aborts} an evaluation — a
    computation that runs to completion is byte-identical whether or not
    a token was being polled. *)

type token

exception Cancelled
(** Raised by {!check}; also the exception evaluation loops let escape
    to their caller (the daemon maps it to a [deadline_exceeded] or
    [cancelled] protocol error). *)

val never : token
(** The token that never trips — the default threaded through evaluation
    entry points; polling it is a single immutable load. *)

val create : unit -> token
(** A fresh untripped token. *)

val cancel : token -> unit
(** Trip the token (idempotent; safe from any domain or from a signal
    handler — it is one atomic store). *)

val with_deadline : float -> token
(** [with_deadline t] trips once the wall clock ([Unix.gettimeofday])
    passes [t] (absolute seconds), or when explicitly cancelled. *)

val cancelled : token -> bool
(** Has the token tripped?  This is the poll. *)

val check : token -> unit
(** [check t] raises {!Cancelled} iff [cancelled t]. *)
