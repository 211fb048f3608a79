(** Crash-scenario generation for experiment campaigns.

    The paper's crash experiments pick the processors that fail uniformly
    among the platform's processors (Section 6: "Processors that fail
    during the schedule process are chosen uniformly from the range
    [\[1, 10\]]"). *)

val uniform_procs : Rng.t -> m:int -> count:int -> Platform.proc list
(** [count] distinct processors chosen uniformly among [m]. *)

val timed :
  Rng.t -> m:int -> count:int -> horizon:float -> (Platform.proc * float) list
(** [count] distinct processors, each with a crash instant uniform in
    [\[0, horizon)] — for the timed-crash extension experiments. *)

(** {1 Pre-drawn scenario blocks}

    The batched replay path ({!Replay.eval_batch}) consumes scenarios in
    the engine's native representation: a per-processor crash-time array
    ([neg_infinity] = dead from the start, [infinity] = never crashes,
    finite = crash instant) plus an optional list of permanently dead
    links.  [draw_block] pre-draws a whole campaign into an array up
    front, off a single root generator, so evaluation order — sequential
    or spread over domains by {!Parallel.map} — can never perturb the
    stream (the PR 4 determinism contract). *)

type t = {
  sc_crash_time : float array;  (** one entry per processor *)
  sc_dead_links : (Platform.proc * Platform.proc) list;
      (** directed links dead for the whole run *)
}

type mode = From_start | Timed of float
(** [Timed horizon]: crash instants uniform in [\[0, horizon)]. *)

val of_crash_times :
  ?dead_links:(Platform.proc * Platform.proc) list -> float array -> t
(** Wrap an explicit crash-time array (not copied). *)

val draw_block : Rng.t -> m:int -> count:int -> mode:mode -> runs:int -> t array
(** [draw_block rng ~m ~count ~mode ~runs] draws [runs] independent
    scenarios, each crashing [min count m] distinct processors chosen
    uniformly among [m].  Consumes the exact same generator stream as
    drawing each scenario with {!uniform_procs} / {!timed}. *)
