(** Plain-text and CSV rendering of result tables.

    The benchmark harness prints every reproduced figure/table as rows of
    labelled columns; this module owns the formatting so that all outputs
    line up and the CSV export matches the pretty print. *)

type align = Left | Right

type t
(** A table under construction: a header plus rows of cells. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table.  [aligns] defaults to [Right] for
    every column; if shorter than the header list the default fills in. *)

val add_row : t -> string list -> unit
(** Appends a row.  Raises [Invalid_argument] if the arity differs from the
    header. *)

val add_float_row : t -> string -> float list -> unit
(** [add_float_row t label xs] appends [label] followed by the floats in
    two-decimal fixed point. *)

val to_string : t -> string
(** Pretty print with aligned columns separated by two spaces. *)

val to_csv : t -> string
(** Comma-separated rendering (cells containing commas or quotes are
    quoted). *)

val print : t -> unit
(** [to_string] to stdout, followed by a newline. *)

val float_cell : ?decimals:int -> float -> string
(** Fixed-point formatting with [decimals] (default 2) digits; renders
    [nan] as ["-"]. *)
