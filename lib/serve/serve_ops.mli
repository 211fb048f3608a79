(** Request evaluation: the daemon's op table.

    Four deterministic operations — [schedule], [replay], [montecarlo],
    [analyze] — share one parameter vocabulary (seed, family, tasks, m,
    epsilon, granularity, algo, model: exactly the CLI flags) and are
    evaluated through the same library entry points as the CLI, so a
    serve response agrees byte-for-byte with a direct library call (the
    differential test pins this).

    {!prepare} validates the parameters {e up front} (strictly: unknown
    fields are rejected, catching typos before they silently select a
    default) and returns the request's canonical cache key plus a
    closure that performs the work later, under the admission queue's
    cancellation token.  The key fingerprints everything that determines
    the result — op and all effective parameters, which pin the DAG,
    platform and ε through the deterministic generators.

    A [ctx] memoizes built schedules and compiled replay engines across
    requests (bounded, FIFO eviction): a [replay] after a [montecarlo]
    on the same instance pays neither scheduling nor {!Replay.compile}
    again even when the result itself is not cached. *)

type ctx

val create : unit -> ctx
(** An empty memo, bounded to 32 schedules and engines. *)

val ops : string list
(** The evaluable op names (excludes the server-level [ping], [stats]
    and [shutdown]). *)

type prepared = {
  p_key : string;  (** canonical fingerprint — the cache key *)
  p_op : string;
  p_run :
    cancel:Cancel.token ->
    (string, Serve_protocol.error_class * string) result;
      (** compute the rendered result bytes; [Cancel.Cancelled] from the
          evaluation loops is mapped to [Deadline_exceeded], any other
          exception to [Internal] — nothing escapes *)
}

val prepare :
  ctx ->
  op:string ->
  params:Json.t ->
  (prepared, Serve_protocol.error_class * string) result
(** Validate and canonicalize one request.  [Error (Bad_request, _)] on
    unknown op, unknown or ill-typed fields, or out-of-range sizes (the
    daemon enforces resource ceilings a CLI run does not need). *)
