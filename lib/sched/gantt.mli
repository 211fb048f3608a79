(** ASCII Gantt charts of schedules, for examples and debugging.

    Renders one row per processor with task replicas as labelled blocks,
    plus optional rows for the send/receive activity of each processor so
    one-port serialization is visible. *)

val render : ?width:int -> ?show_comm:bool -> Schedule.t -> string
(** [render sched] draws the schedule scaled to [width] characters
    (default 100) per time line.  With [show_comm] (default [false]),
    adds "P<i> snd" and "P<i> rcv" rows showing message legs and
    reception windows. *)

val print : ?width:int -> ?show_comm:bool -> Schedule.t -> unit

val to_svg : Schedule.t -> string
(** Standalone SVG rendering, 900 pixels wide with 28-pixel rows: one row
    per processor, one rectangle per replica (colour-coded by task,
    labelled "task.replica"), message legs drawn as lines from the
    sender's row to the receiver's row. *)

val svg_to_file : string -> Schedule.t -> unit
