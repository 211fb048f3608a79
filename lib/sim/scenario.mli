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

(** {1 Crash rows}

    The replay engine reads a scenario as one {e row} of [m] crash
    instants in a flat float array: scenario [j], processor [p] at
    [j * m + p].  [neg_infinity] means dead from the start, [infinity]
    never crashes, a finite value is the crash instant.  The writers
    below ({!write_set} included) and the random {!draw_row} are the
    only code that fills a row;
    {!Replay.eval_batch} reads a range of rows and {!Replay.scan} fills
    and evaluates them block by block. *)

type mode = From_start | Timed of float
(** [Timed horizon]: crash instants uniform in [\[0, horizon)]. *)

val write_from_start : float array -> m:int -> int -> Platform.proc list -> unit
(** [write_from_start rows ~m j procs] makes row [j] the scenario in
    which exactly the listed processors are dead from the start
    (duplicates are harmless).  Raises [Invalid_argument] for a
    processor outside [\[0, m)]. *)

val write_timed :
  float array -> m:int -> int -> (Platform.proc * float) list -> unit
(** [write_timed rows ~m j crashes] makes row [j] the scenario in which
    processor [p] dies at [tau] for each listed [(p, tau)] — the
    earliest instant wins when a processor is listed twice — and the
    others never crash.  Raises [Invalid_argument] for a processor
    outside [\[0, m)]. *)

val draw_row :
  Rng.t -> count:int -> mode:mode -> float array -> m:int -> int -> unit
(** [draw_row rng ~count ~mode rows ~m j] draws one scenario into row
    [j]: [min count m] distinct processors chosen uniformly among [m],
    dead from the start or, with [Timed horizon], each at an instant
    uniform in [\[0, horizon)].  It consumes the exact generator stream
    of drawing the same scenario with {!uniform_procs} / {!timed}, so a
    campaign that draws its rows in run order reproduces the historical
    scenarios.  Raises [Invalid_argument] if [count < 0]. *)

(** {2 From-start crash sets}

    The processors dead from the start in a row, as a bitset of
    {!set_words} ints: processor [p] is bit [p mod 62] of word [p / 62]
    (on a 64-bit host), so with [m <= 62] the whole set is the one int
    [set.(0)].  A repeated from-start scenario has an equal bitset. *)

val set_words : m:int -> int
(** Ints in the bitset of a crash set over [m] processors (at least 1). *)

val read_set : float array -> m:int -> int -> int array -> unit
(** [read_set rows ~m j set] overwrites [set] (of length
    [set_words ~m]) with the processors dead from the start in row
    [j]; crash instants of [Timed] rows are not read. *)

val write_set : float array -> m:int -> int -> int array -> unit
(** [write_set rows ~m j set] makes row [j] the scenario in which exactly
    the processors of [set] are dead from the start: the inverse of
    {!read_set}. *)
