(* Placement engine implementing Algorithms 5.1/5.2 of the paper with the
   support-set strengthening.  See Caft's interface and DESIGN.md for the
   full rationale; in brief:

   Support sets.  For a placed replica [r], [support(r)] is a set of
   processors such that, whenever no processor of [support(r)] crashes
   (and at most [epsilon] processors crash in total), [r] completes:

   - a replica input that receives from *every* replica of a predecessor
     survives as long as the replica's own processor does, because by
     induction the predecessor task completes on some surviving processor
     which then feeds it — contribution to the support: nothing;
   - a one-to-one input depends on its single chosen source, so it
     contributes the source's whole support.

   A task resists [epsilon] arbitrary failures if the supports of its
   [epsilon + 1] replicas are pairwise disjoint: any [epsilon] crashes
   miss at least one support entirely (and the induction closes because
   this holds for every task).  The paper locks only the head processors
   of the current step (equation (7)), which leaves chains of one-to-one
   mappings vulnerable; locking the whole support restores
   Proposition 5.2.

   The placement loop generalises Algorithm 5.2 in three ways, each of
   which only *increases* the opportunities for one-to-one communication
   while preserving the guarantee:

   - the head pool of a predecessor is every placed replica whose support
     is disjoint from the locked set, not just the replicas on singleton
     processors (singletons are the depth-1 approximation of "lockable
     without collateral", which the support test answers exactly);
   - the one-to-one/full-replication decision is made per predecessor
     rather than per replica, so a task keeps cheap one-to-one inputs for
     the predecessors that allow it even when another predecessor has run
     out of disjoint replicas;
   - a candidate placement is admissible only if its support leaves at
     least one unlocked processor per sibling replica still to place,
     which keeps the invariant "unlocked >= replicas remaining" and rules
     out the locked-set exhaustion the paper leaves implicit.

   Explicit head popping is subsumed: once a head feeds one sibling, its
   support is locked and the disjointness filter removes it from every
   later pool. *)

(* Observability: every committed placement decision is counted — one
   increment per (replica, predecessor) input, so over a whole run
   [caft.one_to_one + caft.full_replication] equals the number of
   scheduled inputs, (epsilon+1) * edge_count.  Probes record nothing in
   Netstate's counters; [caft.candidates_evaluated] counts them, and the
   three [caft.pruned.*] counters the candidates each pruning stage
   rejected without one. *)
let m_one_to_one =
  Obs_metrics.counter ~help:"inputs mapped one-to-one (single head)"
    "caft.one_to_one"

let m_full_replication =
  Obs_metrics.counter ~help:"inputs demoted to full replication"
    "caft.full_replication"

let m_candidates =
  Obs_metrics.counter ~help:"candidate placements evaluated (probes)"
    "caft.candidates_evaluated"

let m_pruned =
  Obs_metrics.counter
    ~help:
      "candidate placements skipped because their finish-time lower bound \
       could not beat the incumbent (sum of the caft.pruned.* stages)"
    "caft.candidates_pruned"

let m_pruned_stage0 =
  Obs_metrics.counter
    ~help:"candidates rejected by the processor-ready bound (no plan)"
    "caft.pruned.stage0"

let m_pruned_weak =
  Obs_metrics.counter
    ~help:"candidates rejected by the plan-free per-predecessor bound"
    "caft.pruned.weak"

let m_pruned_plan =
  Obs_metrics.counter
    ~help:"candidates rejected by the bound of their input plan"
    "caft.pruned.plan"

let m_support_size =
  Obs_metrics.histogram
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    ~help:"locked support-set size of each committed replica"
    "caft.support_size"

(* The input plan of one candidate placement: per predecessor, either a
   single one-to-one source or full replication. *)
type input_mode = One_to_one of Schedule.replica | Full

type t = {
  ws : Workspace.t;
  net : Netstate.t;
  dag : Dag.t;
  m : int;
  epsilon : int;
  costs : Costs.t;
  one_to_one : bool;
  (* supports.(task * (epsilon + 1) + idx): flattened rather than an array
     of rows so a million-task run allocates one array, not n tiny ones *)
  supports : Bitset.t option array;
  (* the sources of the task being placed, loaded once per placement and
     probed on every surviving candidate *)
  src : Netstate.sources;
  (* Scratch state reused across every candidate evaluation — the inner
     loop runs once per (task, replica, candidate processor) and used to
     allocate a support bitset, a mode array and O(preds) closures per
     call.  All of it lives on the engine now:

     - [scratch_modes]: the input plan under construction (one slot per
       predecessor, sized to the DAG's max in-degree); copied with
       [Array.sub] only when a candidate becomes the incumbent;
     - [scratch_support]: the combined support of the plan;
     - [est_val]/[est_w]/[est_stamp]: memo table for the leg finish
       estimate and leg duration, keyed by (predecessor slot, replica
       index), valid while [stamp] matches — [plan_for] fills it and the
       lower bounds reuse it, which is exact because the network state
       does not change between the two (the probe happens afterwards,
       and undoes itself). *)
  scratch_modes : input_mode array;
  scratch_support : Bitset.t;
  (* [plan_for] settling state: per-processor coverage counts of the
     one-to-one head supports, per-slot head cardinalities and the
     demotion order under construction (see the settle loop) *)
  scratch_cover : int array;
  scratch_cards : int array;
  scratch_order : int array;
  est_val : float array;
  est_w : float array;
  est_stamp : int array;
  mutable stamp : int;
  platform : Platform.t;
  (* streaming hook: called once per committed replica; when set, the
     stored supply list is dropped right after the callback (placement
     never reads it back — see the interface) *)
  on_place : (Schedule.replica -> unit) option;
  (* one-port receive serialization holds: the per-candidate lower bounds
     may add the recv-port chaining term (see [ser_term]) *)
  one_port : bool;
}

let max_in_degree dag =
  let worst = ref 0 in
  for task = 0 to Dag.task_count dag - 1 do
    worst := max !worst (Array.length (Dag.preds dag task))
  done;
  !worst

let create ?model ?fabric ?insertion ?(one_to_one = true) ?on_place ~epsilon
    costs =
  let ws = Workspace.create ?model ?fabric ?insertion ~epsilon costs in
  let dag = Workspace.dag ws in
  let max_preds = max_in_degree dag in
  let est_cells = max 1 (max_preds * (epsilon + 1)) in
  let m = Platform.proc_count (Workspace.platform ws) in
  {
    ws;
    net = Workspace.net ws;
    dag;
    m;
    epsilon;
    costs;
    one_to_one;
    supports = Array.make (Dag.task_count dag * (epsilon + 1)) None;
    src = Netstate.create_sources ();
    scratch_modes = Array.make (max 1 max_preds) Full;
    scratch_support = Bitset.create m;
    scratch_cover = Array.make m 0;
    scratch_cards = Array.make (max 1 max_preds) 0;
    scratch_order = Array.make (max 1 max_preds) 0;
    est_val = Array.make est_cells 0.;
    est_w = Array.make est_cells 0.;
    est_stamp = Array.make est_cells 0;
    stamp = 0;
    platform = Workspace.platform ws;
    on_place;
    one_port = Netstate.model (Workspace.net ws) = Netstate.One_port;
  }

let epsilon t = t.epsilon
let dag t = t.dag

let support_of t task idx =
  match t.supports.((task * (t.epsilon + 1)) + idx) with
  | Some s -> s
  | None -> invalid_arg "Caft_engine: support of unplaced replica"

let exec t task p = Costs.exec t.costs task p

(* Estimated finish time of the communication shipping [volume] units from
   replica [r] to processor [dst] under the current network state — the
   sort key of Algorithm 5.2 line 3.  Co-located replicas "finish" when
   the replica itself does.  Cached per (predecessor slot, replica index)
   for the candidate processor stamped on the engine; the cache is exact,
   not approximate: between [plan_for] and the lower bounds for one
   candidate nothing touches the network state, so recomputing would
   produce the identical float.  [est_w] keeps the leg duration alongside
   ([-1.] for a co-located replica) so the one-port serialization bounds
   never recompute [comm_time]. *)
let est_cached t ~slot ~volume ~dst (r : Schedule.replica) =
  let cell = (slot * (t.epsilon + 1)) + r.Schedule.r_index in
  if t.est_stamp.(cell) = t.stamp then t.est_val.(cell)
  else begin
    let src = r.Schedule.r_proc in
    let v =
      if src = dst then begin
        t.est_w.(cell) <- -1.;
        r.Schedule.r_finish
      end
      else begin
        let w = Platform.comm_time t.platform ~src ~dst ~volume in
        let start =
          Float.max (Netstate.send_free t.net src)
            (Float.max r.Schedule.r_finish
               (Netstate.link_ready t.net ~src ~dst))
        in
        t.est_w.(cell) <- w;
        start +. w
      end
    in
    t.est_val.(cell) <- v;
    t.est_stamp.(cell) <- t.stamp;
    v
  end

(* Leg duration of the replica whose estimate was just computed with
   [est_cached] under the current stamp ([-1.] if co-located). *)
let cached_w t ~slot (r : Schedule.replica) =
  t.est_w.((slot * (t.epsilon + 1)) + r.Schedule.r_index)

(* Build the input plan for candidate processor [p] given the supports
   locked by the sibling replicas: greedily give every predecessor its
   cheapest support-disjoint head, then demote the largest-support heads
   to full replication until the combined support is admissible.  The plan
   is written into [t.scratch_modes] (first [Array.length preds] slots)
   and the combined support into [t.scratch_support]; both are only valid
   until the next call. *)
let plan_for t ~preds ~locked ~remaining_after p =
  let np = Array.length preds in
  for slot = 0 to np - 1 do
    let pred, volume = preds.(slot) in
    let mode =
      if not t.one_to_one then Full
      else begin
        let best = ref None in
        for i = 0 to Workspace.placed_count t.ws pred - 1 do
          let r = Workspace.get_placed t.ws pred i in
          if Bitset.disjoint (support_of t pred r.Schedule.r_index) locked
          then begin
            let key = est_cached t ~slot ~volume ~dst:p r in
            match !best with
            | Some (bkey, _) when bkey <= key -> ()
            | _ -> best := Some (key, r)
          end
        done;
        match !best with Some (_, r) -> One_to_one r | None -> Full
      end
    in
    t.scratch_modes.(slot) <- mode
  done;
  (* Settle admissibility. *)
  let support () =
    let s = t.scratch_support in
    Bitset.clear s;
    Bitset.add s p;
    for slot = 0 to np - 1 do
      match t.scratch_modes.(slot) with
      | One_to_one r ->
          Bitset.union_into ~into:s
            (support_of t r.Schedule.r_task r.Schedule.r_index)
      | Full -> ()
    done;
    s
  in
  let admissible s = t.m - Bitset.cardinal_union locked s >= remaining_after in
  let s = support () in
  if admissible s then Some s
  else begin
    (* Demotion path: turn heads into full replication until the combined
       support leaves one unlocked processor per sibling still to place.
       Head support cardinalities are static while settling (demotion
       never changes a placed replica's support), so the demotion
       sequence the old one-at-a-time largest-head rescan produced —
       largest cardinality first, earliest slot on ties — is fixed up
       front; the admissibility test is maintained through per-processor
       coverage counts, O(support) per demotion instead of an O(np)
       support rebuild.  Pure set/integer arithmetic: the demoted slot
       set, hence the returned plan and support, is identical to the old
       O(np^2) loop — which made the wide fan-in joins of the staged
       family quadratic in their in-degree.  The no-demotion common case
       above never pays for the counts. *)
    let cover = t.scratch_cover in
    Array.fill cover 0 t.m 0;
    (* covered = |locked ∪ {p} ∪ (union of one-to-one head supports)| *)
    let covered = ref (Bitset.cardinal_union locked s) in
    let n_o2o = ref 0 in
    for slot = 0 to np - 1 do
      match t.scratch_modes.(slot) with
      | One_to_one r ->
          let hs = support_of t r.Schedule.r_task r.Schedule.r_index in
          t.scratch_cards.(slot) <- Bitset.cardinal hs;
          t.scratch_order.(!n_o2o) <- slot;
          incr n_o2o;
          Bitset.iter (fun q -> cover.(q) <- cover.(q) + 1) hs
      | Full -> ()
    done;
    let admissible () = t.m - !covered >= remaining_after in
    if !n_o2o > 0 then begin
      let order = Array.sub t.scratch_order 0 !n_o2o in
      Array.sort
        (fun a b ->
          let c = compare t.scratch_cards.(b) t.scratch_cards.(a) in
          if c <> 0 then c else compare a b)
        order;
      let i = ref 0 in
      while (not (admissible ())) && !i < !n_o2o do
        let slot = order.(!i) in
        (match t.scratch_modes.(slot) with
        | One_to_one r ->
            t.scratch_modes.(slot) <- Full;
            Bitset.iter
              (fun q ->
                cover.(q) <- cover.(q) - 1;
                if cover.(q) = 0 && (not (Bitset.mem locked q)) && q <> p then
                  decr covered)
              (support_of t r.Schedule.r_task r.Schedule.r_index)
        | Full -> assert false (* order holds one-to-one slots only *));
        incr i
      done
    end;
    if not (admissible ()) then None
      (* even {p} inadmissible: p cannot host this replica *)
    else Some (support ())
  end

(* The intra-processor suppression rule (a co-located supplier mutes the
   remote copies) is only safe for full-replication inputs when the
   co-located supplier cannot starve while [p] is alive, i.e. its support
   is exactly {p}. *)
let colocate_exclusive_ok t ~preds modes p =
  let np = Array.length preds in
  let rec slots_ok slot =
    slot >= np
    ||
    match modes.(slot) with
    | One_to_one _ -> slots_ok (slot + 1)
    | Full ->
        let pred, _ = preds.(slot) in
        let count = Workspace.placed_count t.ws pred in
        let rec find i =
          if i >= count then true
          else begin
            let r = Workspace.get_placed t.ws pred i in
            if r.Schedule.r_proc = p then
              Bitset.equal_singleton (support_of t pred r.Schedule.r_index) p
            else find (i + 1)
          end
        in
        find 0 && slots_ok (slot + 1)
  in
  slots_ok 0

(* Point the loaded sources at the plan: a one-to-one slot keeps only
   its head, a full-replication slot every placed replica. *)
let select_plan t modes np =
  for slot = 0 to np - 1 do
    match modes.(slot) with
    | One_to_one r ->
        Netstate.select_head t.src ~slot ~replica:r.Schedule.r_index
    | Full -> Netstate.select_full t.src ~slot
  done

(* Commit the replica under [modes]; [t.src] must hold the task's
   sources (loaded by [best_placement]). *)
let book t task p ~preds modes =
  select_plan t modes (Array.length preds);
  Netstate.commit t.net t.src
    ~colocate_exclusive:(colocate_exclusive_ok t ~preds modes p)
    ~proc:p ~exec:(exec t task p)

(* A floating-point lower bound on the one-port receive chain of [legs]
   legs whose durations sum to [sum] from [recv_free].  [recv_free +.
   sum] rounds [legs] times, each time by a relative error of at most
   u = 2^-53, and so does the chain, in whatever order it books the legs:
   all terms are non-negative, so the sum is at most (1+u)^legs and the
   chain at least (1-u)^legs times the exact value.  Scaling by
   1 - 2(legs+1)u, itself exact, covers both and the rounding of the
   product (DESIGN.md, "Candidate pruning"). *)
let ser_term ~recv_free ~legs sum =
  (recv_free +. sum) *. (1. -. (float_of_int (legs + 1) *. epsilon_float))

(* Admissible lower bound on the finish time the probe of
   candidate [p] could achieve under the plan [modes].  Every term is a
   lower bound on the corresponding term of the real booking (see
   DESIGN.md, "Candidate pruning"):

   - the execution cannot start before the processor is ready (append
     mode only — insertion may gap-fill earlier, so the term is dropped);
   - each predecessor's data cannot be ready before its cheapest leg
     estimate: a one-to-one input before the estimate of its chosen head
     (the probe's own bookings only push SF/R/RF forward), a
     full-replication input before the cheapest estimate over all placed
     replicas (actual readiness is a min over arrivals, each at least its
     replica's estimate);
   - one-port receive serialization: a predecessor with no replica
     co-located with [p] needs at least one whole leg across [p]'s single
     receive port, contributing at least its cheapest leg duration.
     Summed over such predecessors these legs are distinct and chain on
     the same port starting no earlier than [recv_free p], so

       b_finish >= recv_free p + sum_i w_min_i + exec

     in real arithmetic (arrival chaining in [Netstate.commit]); it is
     what prunes far-away candidates of the wide fan-in gathers without a
     probe.  {!ser_term} turns the sum into a floating-point lower bound
     of the chain.  The chain anchored at [recv_free] only exists if at
     least one predecessor actually crosses the port, and only under the
     one-port model — multiport splits the chain over k slots and
     macro-dataflow has no receive port at all.

   The other terms use the same float operations as the booking (max,
   +.), which are monotone, so [finish_lower_bound <= booked.b_finish]
   holds in the actual arithmetic — pruning on it can never skip a
   candidate that would have beaten the incumbent, and the argmin (ties
   kept on the incumbent) is byte-identical to exhaustive evaluation. *)
let finish_lower_bound t p ~preds ~e modes =
  let data_lb = ref 0. in
  let ser_sum = ref 0. in
  let legs = ref 0 in
  for slot = 0 to Array.length preds - 1 do
    let pred, volume = preds.(slot) in
    let lb =
      match modes.(slot) with
      | One_to_one r ->
          let est = est_cached t ~slot ~volume ~dst:p r in
          if t.one_port then begin
            (* the chosen head is that predecessor's only source *)
            let w = cached_w t ~slot r in
            if w >= 0. then begin
              incr legs;
              ser_sum := !ser_sum +. w
            end
          end;
          est
      | Full ->
          let best = ref infinity in
          let local = ref false in
          let w_min = ref infinity in
          for i = 0 to Workspace.placed_count t.ws pred - 1 do
            let r = Workspace.get_placed t.ws pred i in
            best := Float.min !best (est_cached t ~slot ~volume ~dst:p r);
            if t.one_port then begin
              let w = cached_w t ~slot r in
              if w < 0. then local := true
              else w_min := Float.min !w_min w
            end
          done;
          if t.one_port && not !local then begin
            (* a co-located replica may feed the input through the local
               supply without ever crossing the port *)
            incr legs;
            ser_sum := !ser_sum +. !w_min
          end;
          !best
    in
    data_lb := Float.max !data_lb lb
  done;
  let data_lb =
    if !legs > 0 then
      Float.max !data_lb
        (ser_term ~recv_free:(Netstate.recv_free t.net p) ~legs:!legs !ser_sum)
    else !data_lb
  in
  let ready_lb =
    if Netstate.insertion t.net then 0. else Netstate.proc_ready t.net p
  in
  Float.max ready_lb data_lb +. e

(* Weakening of {!finish_lower_bound} that needs no input plan: for every
   predecessor, the data cannot be ready before the cheapest leg estimate
   over *all* its placed replicas — a lower bound on both the one-to-one
   estimate (whose head is drawn from a subset) and the full-replication
   minimum (which it equals).  Combined with the {!ser_term} chain under
   one-port.  Monotone accumulation, so the check can bail out per
   predecessor: once the partial bound reaches the incumbent no later
   predecessor can lower it.  Starts from {!ready_lb}, so it only runs on
   candidates stage 0 kept. *)
let ready_lb t p =
  if Netstate.insertion t.net then 0. else Netstate.proc_ready t.net p

(* Stage 0: the processor-ready term alone, no plan and no estimate. *)
let stage0_prune t p ~e ~bound = Float.max (ready_lb t p) 0. +. e >= bound

let weak_prune t p ~preds ~e ~bound =
  let lb = ref (ready_lb t p) in
  let rf0 = if t.one_port then Netstate.recv_free t.net p else 0. in
  let ser_sum = ref 0. in
  let legs = ref 0 in
  let np = Array.length preds in
  let slot = ref 0 in
  let dead = ref false in
  while (not !dead) && !slot < np do
    let pred, volume = preds.(!slot) in
    let best = ref infinity in
    let local = ref false in
    let w_min = ref infinity in
    for i = 0 to Workspace.placed_count t.ws pred - 1 do
      let r = Workspace.get_placed t.ws pred i in
      best := Float.min !best (est_cached t ~slot:!slot ~volume ~dst:p r);
      if t.one_port then begin
        let w = cached_w t ~slot:!slot r in
        if w < 0. then local := true else w_min := Float.min !w_min w
      end
    done;
    lb := Float.max !lb !best;
    if t.one_port && not !local then begin
      incr legs;
      ser_sum := !ser_sum +. !w_min
    end;
    let ser =
      if !legs > 0 then ser_term ~recv_free:rf0 ~legs:!legs !ser_sum else 0.
    in
    if Float.max !lb ser +. e >= bound then dead := true;
    incr slot
  done;
  !dead

(* Evaluate every unlocked processor and return the placement with the
   earliest finish, without committing anything.  The task's sources are
   loaded into [t.src] once; a candidate whose lower bound cannot beat the
   incumbent is skipped without a probe. *)
let best_placement t ~preds ~locked ~remaining_after task =
  Workspace.load_sources t.ws t.src task;
  let evaluated = ref 0 in
  let stage0 = ref 0 and weak = ref 0 and plan = ref 0 in
  let np = Array.length preds in
  let best = ref None in
  (* unlocked processors in ascending order (the fold order of the
     previous list-based walk — the argmin tie-break depends on it) *)
  for p = 0 to t.m - 1 do
    if not (Bitset.mem locked p) then begin
      t.stamp <- t.stamp + 1;
      let e = exec t task p in
      (* staged pruning: each stage's bound under-approximates the next,
         so a candidate pruned here is exactly one the exhaustive fold
         would have rejected — argmin unchanged *)
      match !best with
      | Some (bf, _, _, _) when stage0_prune t p ~e ~bound:bf -> incr stage0
      | Some (bf, _, _, _) when weak_prune t p ~preds ~e ~bound:bf ->
          incr weak
      | _ -> (
          match plan_for t ~preds ~locked ~remaining_after p with
          | None -> ()
          | Some s -> (
              let modes = t.scratch_modes in
              match !best with
              | Some (bf, _, _, _)
                when finish_lower_bound t p ~preds ~e modes >= bf ->
                  incr plan
              | _ -> (
                  incr evaluated;
                  select_plan t modes np;
                  let _, finish =
                    Netstate.probe t.net t.src
                      ~colocate_exclusive:(colocate_exclusive_ok t ~preds modes p)
                      ~proc:p ~exec:e
                  in
                  match !best with
                  | Some (bf, _, _, _) when bf <= finish -> ()
                  | _ ->
                      (* the incumbent must survive the next candidate's
                         plan_for, so snapshot the scratch plan/support *)
                      best :=
                        Some (finish, p, Array.sub modes 0 np, Bitset.copy s))))
    end
  done;
  Obs_metrics.incr ~by:!evaluated m_candidates;
  Obs_metrics.incr ~by:!stage0 m_pruned_stage0;
  Obs_metrics.incr ~by:!weak m_pruned_weak;
  Obs_metrics.incr ~by:!plan m_pruned_plan;
  Obs_metrics.incr ~by:(!stage0 + !weak + !plan) m_pruned;
  !best

let schedule_task t task =
  let preds = Dag.preds t.dag task in
  (* union of the supports of the replicas of [task] placed so far *)
  let locked = Bitset.create t.m in
  let place_one ~remaining_after =
    match best_placement t ~preds ~locked ~remaining_after task with
    | None ->
        (* unreachable: the admissibility invariant keeps at least one
           unlocked processor per remaining replica, and the all-Full plan
           on such a processor is always admissible *)
        failwith "Caft_engine: no candidate processor (invariant broken)"
    | Some (_, p, modes, s) ->
        let booked = book t task p ~preds modes in
        let r = Workspace.place t.ws ~task ~proc:p booked in
        Array.iter
          (fun mode ->
            match mode with
            | One_to_one _ -> Obs_metrics.incr m_one_to_one
            | Full -> Obs_metrics.incr m_full_replication)
          modes;
        Obs_metrics.observe m_support_size
          (float_of_int (Bitset.cardinal s));
        t.supports.((task * (t.epsilon + 1)) + r.Schedule.r_index) <- Some s;
        Bitset.union_into ~into:locked s;
        match t.on_place with
        | None -> ()
        | Some f ->
            f r;
            Workspace.strip_inputs t.ws ~task ~index:r.Schedule.r_index
  in
  for i = 1 to t.epsilon + 1 do
    place_one ~remaining_after:(t.epsilon + 1 - i)
  done

let estimate_finish t task =
  let preds = Dag.preds t.dag task in
  let locked = Bitset.create t.m in
  match best_placement t ~preds ~locked ~remaining_after:t.epsilon task with
  | Some (finish, _, _, _) -> finish
  | None -> infinity

let completion_lower t task = Workspace.completion_lower t.ws task
let support t task idx = Bitset.copy (support_of t task idx)
let to_schedule ~algorithm t = Workspace.to_schedule ~algorithm t.ws
