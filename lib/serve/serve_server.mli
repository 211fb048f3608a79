(** The serve daemon: admission control, deadlines, warm restart.

    The core is a {e synchronous state machine} — {!admit} classifies
    one incoming frame (reply now, or queue it) and {!step} evaluates
    one queued request — with the I/O event loops ({!run_stdio},
    {!run_socket}) layered on top.  The split is what makes the daemon's
    robustness claims testable: the fault-injection harness drives
    [admit]/[step] directly, in-process and deterministically, and
    asserts the one-frame-in/one-frame-out invariant without a kernel in
    the loop.

    Lifecycle of a frame:
    + {!admit}: size check → JSON parse → protocol validation → op
      dispatch.  [ping]/[stats]/[shutdown] are answered inline; anything
      malformed gets a structured error reply.  Evaluable ops are
      validated ({!Serve_ops.prepare}), checked against the cache
      (hits are answered inline, byte-identical to the original
      computation), and finally queued — unless the queue is full
      ([overloaded], load shed) or the daemon is draining
      ([shutting_down]).
    + {!step}: dequeue one request.  If its deadline expired while
      queued, reply [deadline_exceeded] without evaluating; otherwise
      evaluate under a {!Cancel} token carrying the absolute deadline —
      the replay/Monte-Carlo loops poll it per chunk of scenarios, so a
      mid-evaluation expiry also yields [deadline_exceeded].  Successful
      results are journaled into the cache before the reply is built.

    A [deadline_ms] of [0] is {e already expired} — the request is
    answered [deadline_exceeded] deterministically at admission (the
    protocol tests rely on this; a real budget race would be timing
    dependent). *)

type config = {
  queue_capacity : int;  (** admission queue bound (default 64) *)
  max_frame : int;  (** request frame byte limit (default 1 MiB) *)
  default_deadline_ms : float option;
      (** budget for requests that carry none (default: none) *)
  max_requests : int option;
      (** begin draining after admitting this many frames — a
          deterministic shutdown trigger for tests (default: none) *)
}

val default_config : config

type 'a t
(** A daemon instance; ['a] tags each queued request with its client
    (the socket loop routes replies by it; stdio uses [unit]). *)

val create : config -> cache:Serve_cache.t -> 'a t

(** What {!admit} decided about one frame. *)
type 'a admitted =
  | Reply of string  (** answer now (error, inline op, cache hit, shed) *)
  | Queued  (** accepted; a later {!step} will produce the reply *)
  | Reply_shutdown of string
      (** answer now, then drain and exit (the [shutdown] op) *)

val admit : 'a t -> client:'a -> string -> 'a admitted
(** Classify one frame.  Total: every input string — malformed,
    oversized, hostile — yields [Reply]/[Queued]/[Reply_shutdown]; the
    function never raises. *)

val step : 'a t -> ('a * string) option
(** Evaluate the oldest queued request; [None] when idle.  Never
    raises: evaluation failures become [internal] error replies. *)

val queue_depth : 'a t -> int

val begin_shutdown : 'a t -> unit
(** Stop admitting evaluable work ([shutting_down] replies); queued
    requests still drain through {!step}. *)

val draining : 'a t -> bool

(** {1 Event loops}

    Both loops implement the same discipline: buffered line framing with
    oversized-line recovery (an over-limit line is answered [oversized]
    once and discarded up to the next newline, so one hostile client
    cannot wedge the framer), [SIGTERM]/[SIGINT] triggering a graceful
    drain ({!begin_shutdown} → {!step} to empty → compact and close the
    cache journal), and [SIGPIPE] ignored (a client vanishing mid-reply
    is the client's problem, not the daemon's). *)

val run_stdio : unit t -> unit
(** Serve JSON-lines over stdin/stdout until EOF or shutdown.
    Responses keep request order. *)

type conn
(** The socket loop's client tag (one per accepted connection). *)

val run_socket : conn t -> path:string -> unit
(** Serve on a Unix domain socket at [path] (created; removed on
    graceful exit).  Multiple concurrent clients; replies are routed to
    the requesting client; a client disconnecting mid-request discards
    its replies without disturbing the others. *)
