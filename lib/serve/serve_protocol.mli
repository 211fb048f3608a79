(** The serve daemon's wire protocol: versioned JSON-lines.

    One request per line, one response per line, both complete JSON
    objects.  Requests:

    {v
    {"v":1, "id":42, "op":"schedule",
     "params":{"seed":7,"tasks":40,"m":10,"epsilon":1},
     "deadline_ms":5000}
    v}

    [v] defaults to 1 when absent and must equal {!version} when
    present.  [id] is any JSON scalar, echoed verbatim in the response
    so clients can multiplex ([null] when absent).  [op] is required.
    [params] defaults to the empty object.  [deadline_ms] is the
    request's total latency budget, queueing included.

    Responses:

    {v
    {"v":1,"id":42,"ok":true,"op":"schedule","cached":false,
     "elapsed_ms":12.5,"result":{...}}
    {"v":1,"id":42,"ok":false,
     "error":{"class":"deadline_exceeded","message":"..."}}
    v}

    Every frame the daemon reads yields {e exactly one} response frame —
    malformed JSON, wrong types, unknown ops, oversized frames and
    expired deadlines are all answered with structured errors, never
    with a crash or silence (the fault-injection harness pins this).
    The [result] member of an [ok] response is rendered once and cached
    byte-for-byte: a cache hit re-serves the identical bytes. *)

val version : int
(** Current protocol version: 1. *)

(** Every way a request can fail, as a closed enum — clients switch on
    the class, not the message.  [Overloaded] and [Shutting_down] are
    the retryable classes ({!Serve_client} backs off on them). *)
type error_class =
  | Bad_request  (** malformed JSON, wrong field types, unknown op,
                     invalid or out-of-range parameters *)
  | Oversized  (** frame longer than the daemon's [max_frame] *)
  | Overloaded  (** admission queue full — shed, retry with backoff *)
  | Deadline_exceeded
      (** budget expired while queued or mid-evaluation (the evaluation
          was cooperatively cancelled) *)
  | Shutting_down  (** daemon is draining; no new work accepted *)
  | Internal  (** evaluation raised — the daemon survives and reports *)

val class_name : error_class -> string
(** Wire name: [bad_request], [oversized], [overloaded],
    [deadline_exceeded], [shutting_down], [internal]. *)

val retryable : error_class -> bool
(** [true] for [Overloaded] and [Shutting_down]. *)

type request = {
  rq_id : Json.t;  (** echoed; [Null] when the client sent none *)
  rq_op : string;
  rq_params : Json.t;  (** always an [Obj] *)
  rq_deadline_ms : float option;  (** total budget, queueing included *)
}

val parse_request :
  max_frame:int -> string -> (request, error_class * string) result
(** Parse one frame.  Checks, in order: size against [max_frame], JSON
    well-formedness, object shape, version, [op] presence and types.
    Never raises. *)

val request_to_string : request -> string
(** Render a request frame (no trailing newline) — the client side. *)

val ok_response :
  id:Json.t -> op:string -> cached:bool -> elapsed_ms:float -> string -> string
(** [ok_response ~id ~op ~cached ~elapsed_ms result] where [result] is
    the already-rendered result object — spliced in verbatim so cached
    results stay byte-identical. *)

val error_response : id:Json.t -> error_class -> string -> string

(** Parsed view of a response frame — the client side. *)
type response = {
  rs_id : Json.t;
  rs_ok : bool;
  rs_op : string option;
  rs_cached : bool;
  rs_elapsed_ms : float option;
  rs_result : Json.t option;  (** [Some] iff [rs_ok] *)
  rs_error : (error_class * string) option;  (** [Some] iff [not rs_ok] *)
}

val parse_response : string -> (response, string) result
(** Parse a response frame; [Error] describes the malformation (a
    non-protocol frame — the fault harness treats any occurrence as a
    daemon bug). *)
