(** Minimal JSON values, printer and parser.

    The analysis subsystem emits machine-readable reports (certificates,
    lint findings) and must be able to read them back — without adding an
    external dependency.  This module implements just enough of RFC 8259
    for that: objects, arrays, strings with the standard escapes, numbers
    (kept as [Int] when they carry no fractional part in the source),
    booleans and [null].

    Printing is deterministic: object member order is preserved, floats
    are rendered with [%.12g], or with one decimal when that text reads
    back as an integer below 1e15 (non-finite floats degrade to [null],
    which keeps the output standard-compliant).  [to_string] of a parsed
    value is a fixed point after one round trip. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render a value.  With [indent] (e.g. [2]) the output is pretty-printed
    over multiple lines; the default is a compact single line. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; the error string carries the byte
    offset of the failure. *)

val parse_exn : string -> t
(** Raises [Failure] with the parse error. *)

(** {1 Accessors}

    All return [None] (or the empty list) on a type mismatch rather than
    raising; readers of externally supplied certificates are expected to
    validate shape explicitly. *)

val member : string -> t -> t option
(** Field of an [Obj]. *)

val to_list : t -> t list
(** Elements of a [List]; [[]] for any other constructor. *)

val to_int : t -> int option
val to_float : t -> float option
(** [Int] values coerce to float. *)

val to_bool : t -> bool option
val to_str : t -> string option
