(** Test-driver client for the serve daemon.

    Speaks the JSON-lines protocol over a Unix domain socket with the
    retry discipline the protocol's error classes call for: [overloaded]
    and [shutting_down] replies — and connection-level failures (refused,
    reset, daemon restarting) — are retried under capped exponential
    backoff with seeded jitter; every other error class is final and
    returned to the caller.  The jitter draws from an {!Rng} the caller
    seeds, so a client run is reproducible delay-for-delay. *)

type policy = {
  max_attempts : int;  (** total tries, first included (default 5) *)
  base_delay_s : float;  (** first backoff step (default 0.05) *)
  max_delay_s : float;  (** backoff cap (default 1.0) *)
}

val default_policy : policy

val request_with_retry :
  ?policy:policy ->
  rng:Rng.t ->
  path:string ->
  Serve_protocol.request ->
  (Serve_protocol.response, string) result
(** Connect, send, read — reconnecting and backing off on retryable
    failures.  Attempt [k] sleeps
    [min max_delay_s (base_delay_s * 2^k) * (0.5 + uniform(0,0.5))]
    first: full-jitter-style randomization so a herd of restarting
    clients does not stampede a recovering daemon in lockstep.
    [Error] only after [max_attempts] retryable failures in a row (the
    message says how many were made) or on a non-retryable transport
    error. *)
