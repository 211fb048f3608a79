(** Sparse interconnection topologies (the paper's Section 7 extension).

    The paper's conclusion sketches the extension of CAFT from the clique
    to sparse interconnects: "each processor is provided with a routing
    table which indicates the route to be used to communicate with another
    processor.  To achieve contention awareness, at most one message can
    circulate on a given link at a given time-step."

    This module builds classic interconnects, computes deterministic
    shortest-path routing tables, and derives the one artefact the rest
    of the library needs: a routed {!Platform.t} whose end-to-end unit
    delay between two processors is the sum of the physical-link delays
    along the route, and which maps each processor pair to the physical
    links of its route.  The booking engine, the validator and the
    replay simulator read those routes from the platform, so they all
    serialize messages on the same shared links.

    Every physical link is directed; the constructors below create both
    directions of each cable.  A message reserves all links of its route
    for its whole duration (circuit-style reservation — the conservative
    reading of "at most one message per link at a time"). *)

type t

val custom : m:int -> links:(Platform.proc * Platform.proc * float) list -> t
(** [custom ~m ~links] builds a topology over processors [0..m-1] with
    one bidirectional cable (two directed links) of the given unit delay
    per triple.  Raises [Invalid_argument] on bad endpoints, non-positive
    delays, duplicate cables, or a disconnected topology. *)

val clique : ?delay:float -> int -> t
(** Fully connected, every cable with unit delay [delay] (default 1). *)

val ring : ?delay:float -> int -> t
(** Processors in a cycle; [m >= 2]. *)

val star : ?delay:float -> int -> t
(** Processor 0 is the hub; every other processor hangs off it.
    [m >= 2]. *)

val mesh2d : ?delay:float -> rows:int -> cols:int -> unit -> t
(** [rows x cols] grid, row-major processor numbering. *)

val torus2d : ?delay:float -> rows:int -> cols:int -> unit -> t
(** Grid with wrap-around cables. *)

val hypercube : ?delay:float -> int -> t
(** [hypercube d] over [2^d] processors; cables along each dimension. *)

(** {1 Queries} *)

val proc_count : t -> int

val link_count : t -> int
(** Number of directed physical links. *)

val delay_between : t -> Platform.proc -> Platform.proc -> float
(** End-to-end delay (sum along the route); [0.] for [src = dst]. *)

val route : t -> Platform.proc -> Platform.proc -> Platform.proc list
(** The processor path from [src] to [dst], both included.  Routes are
    deterministic: shortest total delay, ties broken by hop count then by
    smallest next processor id. *)

val diameter_hops : t -> int
(** Longest route length in hops. *)

(** {1 Integration} *)

val platform : t -> Platform.t
(** The routed platform ({!Platform.routed}): end-to-end delays, and the
    physical links of every route, numbered [0 .. link_count t - 1]. *)
