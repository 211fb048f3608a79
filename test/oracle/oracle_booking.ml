(* List-form booking over [Netstate]'s one kernel, and twin states to
   judge [Netstate.probe] by.

   The library books through [Netstate.sources] and [Netstate.commit]
   only.  The tests state their bookings as a list of (predecessor,
   sources) inputs; [book_replica], [book_exec_only] and [load_inputs]
   turn that list into a sealed source set and commit it. *)

(* Clear [src], add [inputs] slot by slot in order, seal.  [who] names
   the caller in the error for a predecessor without a source. *)
let load_inputs_as who src inputs =
  List.iter
    (fun (pred, sources) ->
      if sources = [] then
        invalid_arg (Printf.sprintf "%s: predecessor %d has no source" who pred))
    inputs;
  Netstate.clear_sources src;
  List.iteri
    (fun slot (pred, sources) ->
      List.iter
        (fun (s : Netstate.source) ->
          Netstate.add_source src ~slot ~pred ~task:s.Netstate.s_task
            ~replica:s.Netstate.s_replica ~proc:s.Netstate.s_proc
            ~finish:s.Netstate.s_finish ~volume:s.Netstate.s_volume)
        sources)
    inputs;
  Netstate.seal_sources src

let load_inputs src inputs = load_inputs_as "Netstate.load_inputs" src inputs

(* [colocate_exclusive] defaults to [true], the paper's intra-processor
   rule. *)
let book_replica ?(colocate_exclusive = true) t ~proc ~exec ~inputs =
  let src = Netstate.create_sources () in
  load_inputs_as "Netstate.book_replica" src inputs;
  Netstate.commit t src ~colocate_exclusive ~proc ~exec

(* a task with no inputs: starts at r(proc) *)
let book_exec_only t ~proc ~exec =
  Netstate.commit t
    (Netstate.create_sources ())
    ~colocate_exclusive:true ~proc ~exec

(* A state together with the bookings committed on it.  [twin] rebuilds
   the same state from scratch by committing them again in order, so a
   test can compare a probe on [net] with a commit on the twin without
   trusting the probe's undo log. *)
type ledger = {
  net : Netstate.t;
  fresh : unit -> Netstate.t;
  mutable booked : (Netstate.t -> unit) list;  (* newest first *)
}

let ledger ?model platform =
  let fresh () = Netstate.create ?model platform in
  { net = fresh (); fresh; booked = [] }

(* [book_replica] on the ledger's state, recorded for its twins *)
let commit ?colocate_exclusive l ~proc ~exec ~inputs =
  let book t = book_replica ?colocate_exclusive t ~proc ~exec ~inputs in
  l.booked <- (fun t -> ignore (book t)) :: l.booked;
  book l.net

let twin l =
  let t = l.fresh () in
  List.iter (fun book -> book t) (List.rev l.booked);
  t
