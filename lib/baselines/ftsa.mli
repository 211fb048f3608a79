(** FTSA — Fault Tolerant Scheduling Algorithm (Benoit, Hakem, Robert,
    2008 \[4\]), the fault-tolerant extension of HEFT used as the main
    baseline of the paper (Section 4.2).

    At each step the free task with the highest [tl + bl] priority is
    selected and its mapping simulated on every processor; the [epsilon+1]
    processors giving the smallest finish times receive one replica each.
    Every replica of every predecessor sends its data to every replica of
    the task (except co-located ones), so a schedule carries up to
    [e(epsilon+1)^2] messages.

    The [model] argument selects the original macro-dataflow behaviour or
    the one-port adaptation of Section 4.3, where all those messages are
    serialized on ports and links. *)

val run :
  ?model:Netstate.model ->
  ?seed:int ->
  epsilon:int ->
  Costs.t ->
  Schedule.t
(** [run ~epsilon costs] builds the fault-tolerant schedule.  [model]
    defaults to {!Netstate.One_port}; [seed] (default 42) only drives
    random tie-breaking.  Raises [Invalid_argument] if the platform has
    fewer than [epsilon + 1] processors. *)
