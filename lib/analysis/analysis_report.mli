(** The combined static analysis of one schedule, with text and JSON
    reporters — the engine behind [ftsched analyze].

    One call to {!analyze} runs the three analyses over a schedule:

    + {!Resilience.certify} — the static ε-resistance certificate (or a
      minimal counterexample crash set);
    + {!Mapping.verify} — Proposition 5.1 join classification and message
      bounds;
    + {!Lint.run} — {!Validate.run}'s violations as error findings, plus
      the advisory rules.

    The JSON rendering is a single self-contained document (certificate
    included) whose [findings] array mirrors SARIF's result shape: rule
    id, severity ([level]), message and a structured location. *)

type t = {
  a_schedule : Schedule.t;
  a_epsilon : int;  (** ε the resistance analysis ran against *)
  a_resilience : Resilience.report option;
      (** [None] if the kill-family computation overflowed
          ({!Resilience.Family_overflow}) — fall back to replay *)
  a_certificate : Certificate.t option;  (** same condition *)
  a_mapping : Mapping.report;
  a_findings : Lint.finding list;
}

val analyze :
  ?epsilon:int ->
  ?domains:int ->
  Schedule.t ->
  t
(** Run all three analyses.  [epsilon] defaults to the schedule's
    replication degree. *)

val ok : t -> bool
(** The schedule is certified resistant (when the certificate could be
    computed) and lint found no error-level finding. *)

val to_json : t -> Json.t

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report. *)
