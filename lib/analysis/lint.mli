(** Schedule lint: the validator's violations plus advisory rules, as one
    findings stream.

    Lint has no validity check of its own.  Its error-level findings are
    exactly {!Validate.run}'s violations, one per violation and in the
    validator's order, with the violation's [check] as the rule id and its
    [detail] as the message.  The advisory rules then flag smells a valid
    schedule can still exhibit:

    - ["redundancy/duplicate-supply"] (warning) — the same supplier
      replica booked twice for one input;
    - ["smell/granularity"] (warning) — fine-grain instance, [g < 0.1]:
      communication dominates computation;
    - ["smell/idle-gap"] (info) — a processor idling more than a quarter
      of the makespan between two consecutive replicas. *)

type severity = Error | Warning | Info

type finding = {
  f_rule : string;  (** a {!Validate.violation} check, or an advisory rule id *)
  f_severity : severity;
  f_loc : Validate.location;
  f_msg : string;
}

val run : Schedule.t -> finding list
(** The validator's violations (errors), then the advisory findings in the
    order listed above, so the list is sorted by decreasing severity. *)

val errors : finding list -> int
(** Number of error-level findings. *)

val severity_to_string : severity -> string
val pp_finding : Format.formatter -> finding -> unit
