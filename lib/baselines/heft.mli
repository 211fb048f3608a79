(** HEFT — Heterogeneous Earliest Finish Time (Topcuoglu, Hariri, Wu,
    2002), the reference fault-free list scheduler of the literature.

    The paper uses it twice: as the "FaultFree-CAFT" curve (the fault-free
    version of CAFT reduces to an implementation of HEFT, Section 6) and
    as the basis of FTSA.  Our implementation is exactly {!Ftsa.run} with
    [epsilon = 0]: highest [tl + bl] priority first, replica on the
    processor minimising the finish time, communications booked under the
    selected model. *)

val run :
  ?model:Netstate.model ->
  ?seed:int ->
  Costs.t ->
  Schedule.t
(** Fault-free schedule (one replica per task), algorithm name "HEFT". *)
