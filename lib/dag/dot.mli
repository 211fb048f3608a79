(** Graphviz export of task graphs, for inspecting generated workloads and
    documenting examples. *)

val to_string : Dag.t -> string
(** Renders the DAG in DOT syntax, as graph ["dag"]: each task labelled
    with its name, each edge with its data volume to one decimal. *)

val to_file : string -> Dag.t -> unit
(** [to_file path g] writes {!to_string} to [path]. *)

exception Parse_error of { line : int; message : string }

val parse : ?default_volume:float -> string -> Dag.t
(** [parse text] reads a task graph from a common subset of the DOT
    language: a [digraph] whose statements are node declarations
    ([id \[label="name"\]]) and edges ([a -> b \[label="12.5"\]]).  Node
    identifiers are mapped to dense task ids in order of first appearance;
    a numeric edge label becomes the data volume (otherwise
    [default_volume], default [0.]); graph-level attributes, [node]/[edge]
    defaults, comments and chained edges ([a -> b -> c]) are accepted.
    Round-trips with {!to_string}.  Raises {!Parse_error} on malformed
    input (a self edge, or an edge label that reads as a negative,
    infinite or nan volume, included), {!Dag.Cycle} if the edges form a cycle, and
    [Invalid_argument] on duplicate edges. *)

val parse_file : ?default_volume:float -> string -> Dag.t
