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
   later pool.

   Cost.  A placement evaluates every unlocked processor, but the sort
   key of Algorithm 5.2 line 3 — the estimated finish of a leg from each
   source replica to each candidate — depends only on the network state,
   which stays fixed until the placement commits.  So one leg table per
   placement holds it for every (candidate, source) pair, together with
   the head eligibility of each source, which does not depend on the
   candidate at all.  A candidate then costs one flat pass over its row,
   which gives two lower bounds on its finish: a plan-free one, and the
   bound of the plan "cheapest eligible head per slot".  The latter is
   the plan [plan_for] returns whenever a per-placement certificate
   shows it cannot demote, so only the candidates that survive both
   bounds, or that lack the certificate, build a plan and probe it
   (DESIGN.md, "Candidate pruning"). *)

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
    ~help:
      "candidates rejected by the processor-ready bound, before their \
       leg-table row is read"
    "caft.pruned.stage0"

let m_pruned_weak =
  Obs_metrics.counter
    ~help:
      "candidates rejected by the plan-free bound of their leg-table row \
       (cheapest leg per predecessor)"
    "caft.pruned.weak"

let m_pruned_plan =
  Obs_metrics.counter
    ~help:
      "candidates rejected by the bound of their input plan: from the \
       leg-table row when no demotion is possible, else after plan_for"
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
  (* The leg table of the placement under way (see [load_legs]): with n
     loaded sources, source k of candidate p sits at cell p * n + k of
     [leg_est] (estimated leg finish) and [leg_w] (leg duration, -1. if
     co-located).  Sources are numbered in load order, slot by slot:
     slot s holds sources [slot_off.(s)] to [slot_off.(s + 1) - 1], its
     replicas in index order.  [head_ok.(k)]: source k's support is
     disjoint from the locked set, so it may be a one-to-one head.
     [heads_union]: the locked set and every such support. *)
  mutable leg_est : float array;
  mutable leg_w : float array;
  slot_off : int array;
  head_ok : bool array;
  heads_union : Bitset.t;
  (* Scratch state reused across every candidate evaluation:
     [scratch_modes] is the input plan under construction (one slot per
     predecessor, sized to the DAG's max in-degree), copied with
     [Array.sub] only when a candidate becomes the incumbent;
     [scratch_support] is the combined support of the plan. *)
  scratch_modes : input_mode array;
  scratch_support : Bitset.t;
  (* [plan_for] settling state: per-processor coverage counts of the
     one-to-one head supports, per-slot head cardinalities and the
     demotion order under construction (see the settle loop) *)
  scratch_cover : int array;
  scratch_cards : int array;
  scratch_order : int array;
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

let create ?model ?(one_to_one = true) ?on_place ~epsilon costs =
  let ws = Workspace.create ?model ~epsilon costs in
  let dag = Workspace.dag ws in
  let max_preds = max_in_degree dag in
  let max_sources = max 1 (max_preds * (epsilon + 1)) in
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
    leg_est = [||];
    leg_w = [||];
    slot_off = Array.make (max_preds + 1) 0;
    head_ok = Array.make max_sources false;
    heads_union = Bitset.create m;
    scratch_modes = Array.make (max 1 max_preds) Full;
    scratch_support = Bitset.create m;
    scratch_cover = Array.make m 0;
    scratch_cards = Array.make (max 1 max_preds) 0;
    scratch_order = Array.make (max 1 max_preds) 0;
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

(* Load the task's sources and build the placement's leg table: the
   estimated finish of a leg from every source replica to every unlocked
   candidate — the sort key of Algorithm 5.2 line 3 — and its duration.
   Nothing the table reads changes until the placement commits (a probe
   undoes its own writes), so every candidate reads its row instead of
   recomputing it.  Head eligibility does not depend on the candidate
   either: it is tested once per source here, not per candidate in
   [plan_for].  Returns the number of sources. *)
let load_legs t ~preds ~locked task =
  Workspace.load_sources t.ws t.src task;
  Bitset.clear t.heads_union;
  Bitset.union_into ~into:t.heads_union locked;
  let n = ref 0 in
  for slot = 0 to Array.length preds - 1 do
    let pred, _ = preds.(slot) in
    t.slot_off.(slot) <- !n;
    for i = 0 to Workspace.placed_count t.ws pred - 1 do
      let s = support_of t pred i in
      let ok = t.one_to_one && Bitset.disjoint s locked in
      t.head_ok.(!n) <- ok;
      if ok then Bitset.union_into ~into:t.heads_union s;
      incr n
    done
  done;
  let n = !n in
  t.slot_off.(Array.length preds) <- n;
  let cells = t.m * n in
  if Array.length t.leg_est < cells then begin
    t.leg_est <- Array.make cells 0.;
    t.leg_w <- Array.make cells 0.
  end;
  Netstate.leg_table t.net t.src ~skip:locked ~est:t.leg_est ~w:t.leg_w;
  n

(* Build the input plan for candidate processor [p] given the supports
   locked by the sibling replicas: greedily give every predecessor its
   cheapest support-disjoint head (the first on ties), then demote the
   largest-support heads to full replication until the combined support
   is admissible.  The plan is written into [t.scratch_modes] (first
   [Array.length preds] slots) and the combined support into
   [t.scratch_support]; both are only valid until the next call. *)
let plan_for t ~preds ~locked ~remaining_after ~n p =
  let np = Array.length preds in
  let base = p * n in
  for slot = 0 to np - 1 do
    let lo = t.slot_off.(slot) in
    let head = ref (-1) in
    for k = lo to t.slot_off.(slot + 1) - 1 do
      if
        t.head_ok.(k)
        && (!head < 0 || t.leg_est.(base + k) < t.leg_est.(base + !head))
      then head := k
    done;
    t.scratch_modes.(slot) <-
      (if !head < 0 then Full
       else
         let pred, _ = preds.(slot) in
         One_to_one (Workspace.get_placed t.ws pred (!head - lo)))
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
let[@inline] ser_term ~recv_free ~legs sum =
  (recv_free +. sum) *. (1. -. (float_of_int (legs + 1) *. epsilon_float))

(* Admissible lower bound on the finish time the probe of
   candidate [p] could achieve under the plan [modes].  Every term is a
   lower bound on the corresponding term of the real booking (see
   DESIGN.md, "Candidate pruning"):

   - the execution cannot start before the processor is ready;
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
   kept on the incumbent) is byte-identical to exhaustive evaluation.
   [table_verdict] computes the same expression for the no-demotion
   plan; this one serves the candidates without the certificate, whose
   plan [plan_for] may have demoted. *)
let finish_lower_bound t p ~preds ~n ~e modes =
  let base = p * n in
  let data_lb = ref 0. in
  let ser_sum = ref 0. in
  let legs = ref 0 in
  for slot = 0 to Array.length preds - 1 do
    let lo = base + t.slot_off.(slot) in
    let lb =
      match modes.(slot) with
      | One_to_one r ->
          (* the chosen head is that predecessor's only source *)
          let k = lo + r.Schedule.r_index in
          if t.leg_w.(k) >= 0. then begin
            incr legs;
            ser_sum := !ser_sum +. t.leg_w.(k)
          end;
          t.leg_est.(k)
      | Full ->
          let best = ref infinity in
          let local = ref false in
          let w_min = ref infinity in
          for k = lo to base + t.slot_off.(slot + 1) - 1 do
            best := Flt.fmin !best t.leg_est.(k);
            let w = t.leg_w.(k) in
            if w < 0. then local := true else w_min := Flt.fmin !w_min w
          done;
          if not !local then begin
            (* a co-located replica may feed the input through the local
               supply without ever crossing the port *)
            incr legs;
            ser_sum := !ser_sum +. !w_min
          end;
          !best
    in
    data_lb := Flt.fmax !data_lb lb
  done;
  let data_lb =
    if t.one_port && !legs > 0 then
      Flt.fmax !data_lb
        (ser_term ~recv_free:(Netstate.recv_free t.net p) ~legs:!legs !ser_sum)
    else !data_lb
  in
  Flt.fmax (Netstate.proc_ready t.net p) data_lb +. e

(* Where a candidate's pruning stops.  [Open] goes on to [plan_for]. *)
type verdict = Stage0 | Weak | Plan | Open

(* The pruning stages of candidate [p] against the incumbent's finish
   [bound].  Stage 0, the processor-ready term alone, reads no row.
   Then one pass over [p]'s row of the leg table gives two bounds:

   - the weak bound, {!finish_lower_bound} with every predecessor
     weakened to the cheapest estimate over *all* its placed replicas — a
     lower bound on both the one-to-one estimate (whose head is drawn
     from a subset) and the full-replication minimum (which it equals);
     its data term only grows slot by slot, so the pass stops at the
     first slot that lifts it to the incumbent;
   - the plan bound: {!finish_lower_bound} of the plan "cheapest
     eligible head per slot, first on ties, full replication where no
     head is eligible", the plan [plan_for] builds before it settles.
     [certified] says it cannot demote on [p] (the combined support lies
     in [heads_union] and {p}, which leaves enough unlocked processors);
     then this is [plan_for]'s plan and the same floats give the same
     bound, so it may prune.  Otherwise only [plan_for] knows the plan. *)
let table_verdict t p ~n ~np ~e ~bound ~certified =
  let ready = Netstate.proc_ready t.net p in
  if Flt.fmax ready 0. +. e >= bound then Stage0
  else begin
    let est = t.leg_est and w = t.leg_w and base = p * n in
    let weak_lb = ref ready and weak_sum = ref 0. and weak_legs = ref 0 in
    let plan_lb = ref 0. and plan_sum = ref 0. and plan_legs = ref 0 in
    let slot = ref 0 in
    while !slot < np && !weak_lb +. e < bound do
      let best = ref infinity and local = ref false and w_min = ref infinity in
      let head = ref (-1) and head_est = ref infinity in
      for k = t.slot_off.(!slot) to t.slot_off.(!slot + 1) - 1 do
        let x = est.(base + k) and wk = w.(base + k) in
        best := Flt.fmin !best x;
        if wk < 0. then local := true else w_min := Flt.fmin !w_min wk;
        if t.head_ok.(k) && (!head < 0 || x < !head_est) then begin
          head := k;
          head_est := x
        end
      done;
      weak_lb := Flt.fmax !weak_lb !best;
      if not !local then begin
        incr weak_legs;
        weak_sum := !weak_sum +. !w_min
      end;
      if !head < 0 then begin
        plan_lb := Flt.fmax !plan_lb !best;
        if not !local then begin
          incr plan_legs;
          plan_sum := !plan_sum +. !w_min
        end
      end
      else begin
        plan_lb := Flt.fmax !plan_lb !head_est;
        let wh = w.(base + !head) in
        if wh >= 0. then begin
          incr plan_legs;
          plan_sum := !plan_sum +. wh
        end
      end;
      incr slot
    done;
    if !slot < np then Weak
    else begin
      let rf = if t.one_port then Netstate.recv_free t.net p else 0. in
      let weak =
        if t.one_port && !weak_legs > 0 then
          Flt.fmax !weak_lb (ser_term ~recv_free:rf ~legs:!weak_legs !weak_sum)
        else !weak_lb
      in
      if weak +. e >= bound then Weak
      else if not certified then Open
      else begin
        let data =
          if t.one_port && !plan_legs > 0 then
            Flt.fmax !plan_lb
              (ser_term ~recv_free:rf ~legs:!plan_legs !plan_sum)
          else !plan_lb
        in
        if Flt.fmax ready data +. e >= bound then Plan else Open
      end
    end
  end

(* Evaluate every unlocked processor and return the placement with the
   earliest finish, without committing anything.  The task's sources and
   leg table are loaded once; a candidate whose lower bound cannot beat
   the incumbent is skipped without a probe. *)
let best_placement t ~preds ~locked ~remaining_after task =
  let n = load_legs t ~preds ~locked task in
  let evaluated = ref 0 in
  let stage0 = ref 0 and weak = ref 0 and plan = ref 0 in
  let np = Array.length preds in
  (* [plan_for] demotes only if the support of its first plan, within
     [heads_union] and {p}, leaves fewer than [remaining_after] unlocked
     processors *)
  let union_card = Bitset.cardinal t.heads_union in
  let budget = t.m - remaining_after in
  let best = ref None in
  (* unlocked processors in ascending order (the fold order of the
     previous list-based walk — the argmin tie-break depends on it) *)
  for p = 0 to t.m - 1 do
    if not (Bitset.mem locked p) then begin
      let e = exec t task p in
      let certified =
        (if Bitset.mem t.heads_union p then union_card else union_card + 1)
        <= budget
      in
      (* staged pruning: each bound under-approximates the probe, so a
         candidate pruned here is exactly one the exhaustive fold would
         have rejected — argmin unchanged *)
      let verdict =
        match !best with
        | None -> Open
        | Some (bf, _, _, _) ->
            table_verdict t p ~n ~np ~e ~bound:bf ~certified
      in
      match verdict with
      | Stage0 -> incr stage0
      | Weak -> incr weak
      | Plan -> incr plan
      | Open -> (
          match plan_for t ~preds ~locked ~remaining_after ~n p with
          | None -> ()
          | Some s -> (
              let modes = t.scratch_modes in
              match !best with
              | Some (bf, _, _, _)
                when (not certified)
                     && finish_lower_bound t p ~preds ~n ~e modes >= bf ->
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
