type replica_outcome =
  | Ran of { start : float; finish : float }
  | Crashed
  | Starved of Dag.task

type outcome = {
  completed : bool;
  latency : float;
  failed_tasks : Dag.task list;
  replicas : replica_outcome array array;
}

(* Internal event graph.  Nodes are replicas and messages; edges encode
   data prerequisites and the static order of each resource.  A Kahn
   traversal computes dynamic times in one pass.

   The graph and its traversal order are crash-independent, so [compile]
   builds them once and every scenario of the schedule walks that order
   with the crash-time kernel [walk].  The test suite's oracle
   [Oracle_replay.run] (test/oracle/) still rebuilds the graph per
   scenario; the comments below name it where the compiled form departs
   from it. *)

let m_replays =
  Obs_metrics.counter ~help:"schedule replays run (all crash modes)"
    "replay.runs"

let m_compiles =
  Obs_metrics.counter ~help:"replay simulators compiled (one per schedule)"
    "replay.compiles"

(* ==================================================================== *)
(* Compiled simulator: everything crash-independent, built exactly once *)
(* ==================================================================== *)

(* Replica outcome states in an outcome arena. *)
let st_crashed = 0
let st_ran = 1
let st_starved = 2

(* The scratch arena of up to [a_lanes] scenarios replayed together.  A
   chunk of [nl <= a_lanes] scenarios keeps the value of cell [i] (a
   replica, message, processor, port slot or physical link) for lane
   [lane] at [i * nl + lane], in a prefix of each array, so a one-lane
   chunk is laid out exactly like a single scenario.  Only an outcome
   arena ([a_record], one lane) keeps the start, state and starving
   predecessor of each replica, which [collect_outcome] reads; a batch
   arena keeps only what the latency and degradation columns need. *)
type arena = {
  a_lanes : int;
  a_record : bool;
  a_finish : float array;     (* replica finish, infinity if not Ran *)
  a_start : float array;      (* replica start (valid when Ran) *)
  a_state : int array;        (* st_crashed / st_ran / st_starved *)
  a_starved : int array;      (* starving predecessor (valid when Starved) *)
  a_delivered : float array;  (* message arrival, infinity if dead *)
  a_exec_free : float array;  (* per processor *)
  a_send_free : float array;  (* per processor and port slot *)
  a_recv_free : float array;
  a_phys_free : float array;  (* per physical link *)
}

let make_arena ~m ~nreplicas ~nmsgs ~port_slots ~phys ~lanes ~record =
  let cells n = max 1 (n * lanes) in
  let per_replica x = if record then Array.make (cells nreplicas) x else [||] in
  {
    a_lanes = lanes;
    a_record = record;
    a_finish = Array.make (cells nreplicas) infinity;
    a_start = per_replica 0.;
    a_state = per_replica st_crashed;
    a_starved = per_replica 0;
    a_delivered = Array.make (cells nmsgs) infinity;
    a_exec_free = Array.make (m * lanes) 0.;
    a_send_free = Array.make (m * port_slots * lanes) 0.;
    a_recv_free = Array.make (m * port_slots * lanes) 0.;
    a_phys_free = Array.make (cells phys) 0.;
  }

type compiled = {
  (* immutable description ------------------------------------------- *)
  c_m : int;
  c_v : int;
  c_eps1 : int;
  c_contended : bool;
  c_port_slots : int;
  c_nreplicas : int;
  c_nmsgs : int;
  c_order : int array;
  (* The Kahn pop order over the dependency and resource-order edges
     depends only on static data, never on the scenario, so [compile]
     runs the heap once and keeps only this order; every evaluation walks
     it in a flat loop. *)
  (* per replica node *)
  c_r_proc : int array;
  c_r_dur : float array;
  (* supply index: replica node -> predecessor slots -> supply nodes.
     A supply node < c_nreplicas is a co-located replica (read its
     dynamic finish); otherwise it is a message node (read its dynamic
     arrival). *)
  c_pred_off : int array;   (* nreplicas + 1 *)
  c_pred_task : int array;  (* per predecessor slot *)
  c_sup_off : int array;    (* pred slots + 1 *)
  c_sup : int array;
  (* per message node, indexed by id - nreplicas *)
  c_msg_src_rn : int array;
  c_msg_src : int array;
  c_msg_dst : int array;
  c_msg_dur : float array;
  c_route_off : int array;  (* nmsgs + 1; precomputed physical routes *)
  c_route : int array;
  c_phys : int;  (* physical links some route uses, densely numbered *)
  c_sinks : int array;  (* exit tasks, for degradation reports *)
  (* scratch arenas, reset in place at the start of every walk --------- *)
  c_one : arena;  (* the one-lane outcome arena of eval *)
  mutable c_batch : arena option;  (* eval_batch's, built on first use *)
  mutable c_rows : float array;  (* scan's crash rows, built on first use *)
}

let proc_count c = c.c_m

(* Placeholder for the message slots of [compile]'s discovery array. *)
let no_message =
  {
    Netstate.m_source =
      {
        Netstate.s_task = -1;
        s_replica = -1;
        s_proc = -1;
        s_finish = 0.;
        s_volume = 0.;
      };
    m_dst_proc = -1;
    m_duration = 0.;
    m_leg_start = 0.;
    m_leg_finish = 0.;
    m_arrival = 0.;
  }

(* Sort [ord.(lo .. hi-1)] by (k1, k2, index).  Indices are unique, so
   the order is total and any input permutation gives the same result.
   Float.compare orders floats as the polymorphic compare does.  Top-down
   merge sort ping-ponging between [ord] and the scratch [tmp] (at least
   as long as [ord]); no allocation. *)
let sort_by_keys ~k1 ~k2 ord tmp lo hi =
  let before i j =
    let c = Float.compare k1.(i) k1.(j) in
    if c <> 0 then c < 0
    else
      let c = Float.compare k2.(i) k2.(j) in
      if c <> 0 then c < 0 else i < j
  in
  (* on entry src and dst agree on [lo, hi); on exit dst's range is
     sorted (src's is clobbered) *)
  let rec sort src dst lo hi =
    if hi - lo <= 8 then
      for i = lo + 1 to hi - 1 do
        let x = dst.(i) in
        let j = ref (i - 1) in
        while !j >= lo && before x dst.(!j) do
          dst.(!j + 1) <- dst.(!j);
          decr j
        done;
        dst.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      sort dst src lo mid;
      sort dst src mid hi;
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && before src.(!i) src.(!j)) then begin
          dst.(k) <- src.(!i);
          incr i
        end
        else begin
          dst.(k) <- src.(!j);
          incr j
        end
      done
    end
  in
  if hi - lo > 8 then Array.blit ord lo tmp lo (hi - lo);
  sort tmp ord lo hi

(* The static chains of one resource class with [nb] resources: chain [b]
   is [dat.(off.(b) .. off.(b+1)-1)], the messages [mi < n] one of whose
   hops [hop.(hop_off mi .. hop_off (mi+1) - 1)] is [b], sorted by (k1,
   k2, index).  A counting sort buckets the messages: each hop is counted
   into its resource's slot, the counts become bucket ends, and each
   bucket is filled from its end, which leaves [off.(b)] at its start.
   Then each bucket is sorted on its own. *)
let resource_chains ~k1 ~k2 ~tmp nb ~hop ~hop_off n =
  let off = Array.make (nb + 1) 0 in
  Array.iter (fun b -> off.(b) <- off.(b) + 1) hop;
  for b = 1 to nb do
    off.(b) <- off.(b) + off.(b - 1)
  done;
  let dat = Array.make (Array.length hop) 0 in
  for mi = n - 1 downto 0 do
    for h = hop_off mi to hop_off (mi + 1) - 1 do
      let b = hop.(h) in
      off.(b) <- off.(b) - 1;
      dat.(off.(b)) <- mi
    done
  done;
  for b = 0 to nb - 1 do
    sort_by_keys ~k1 ~k2 dat tmp off.(b) off.(b + 1)
  done;
  (off, dat)

let compile sched =
  Obs_metrics.incr m_compiles;
  Obs_prof.phase ~cat:"sim" "replay.compile" @@ fun () ->
  let dag = Schedule.dag sched in
  let platform = Schedule.platform sched in
  let model = Schedule.model sched in
  let m = Platform.proc_count platform in
  let v = Dag.task_count dag in
  let eps1 = Schedule.epsilon sched + 1 in
  let replica_node task idx = (task * eps1) + idx in
  let nreplicas = v * eps1 in
  let replica rn = Schedule.replica sched (rn / eps1) (rn mod eps1) in
  let contended = model <> Netstate.Macro_dataflow in

  (* -- message numbering, in [Oracle_replay.run]'s discovery order:
        replicas by node, supplies in input order.  A replica's messages get
        consecutive ids, [cons_first.(rn) .. cons_first.(rn+1)-1]
        (offsets from [nreplicas]). ------------------------------------ *)
  let nmsgs = Schedule.message_count sched in
  let nnodes = nreplicas + nmsgs in
  let msgs = Array.make nmsgs no_message in
  let cons_first = Array.make (nreplicas + 1) 0 in
  let key = Array.make nnodes 0. in
  let r_proc = Array.make nreplicas 0 in
  let r_dur = Array.make nreplicas 0. in
  (let mi = ref 0 in
   let rec number = function
     | [] -> ()
     | Schedule.Message msg :: rest ->
         msgs.(!mi) <- msg;
         incr mi;
         number rest
     | Schedule.Local _ :: rest -> number rest
   in
   for rn = 0 to nreplicas - 1 do
     let r = replica rn in
     key.(rn) <- r.Schedule.r_start;
     r_proc.(rn) <- r.Schedule.r_proc;
     r_dur.(rn) <- r.Schedule.r_finish -. r.Schedule.r_start;
     number r.Schedule.r_inputs;
     cons_first.(rn + 1) <- !mi
   done);
  let msg_src_rn = Array.make nmsgs 0 in
  let msg_src = Array.make nmsgs 0 in
  let msg_dst = Array.make nmsgs 0 in
  let msg_dur = Array.make nmsgs 0. in
  let route_off = Array.make (nmsgs + 1) 0 in
  Array.iteri
    (fun mi msg ->
      let s = msg.Netstate.m_source in
      key.(nreplicas + mi) <- msg.Netstate.m_leg_start;
      msg_src_rn.(mi) <- replica_node s.Netstate.s_task s.Netstate.s_replica;
      msg_src.(mi) <- s.Netstate.s_proc;
      msg_dst.(mi) <- msg.Netstate.m_dst_proc;
      msg_dur.(mi) <- msg.Netstate.m_duration;
      let hops =
        if contended then
          Platform.route_length platform s.Netstate.s_proc
            msg.Netstate.m_dst_proc
        else 0
      in
      route_off.(mi + 1) <- route_off.(mi) + hops)
    msgs;
  (* Precomputed routes: [Oracle_replay.run] re-evaluates each route
     per message per physical link on every replay. *)
  let route_dat = Array.make route_off.(nmsgs) 0 in
  if contended then
    for mi = 0 to nmsgs - 1 do
      for i = 0 to route_off.(mi + 1) - route_off.(mi) - 1 do
        route_dat.(route_off.(mi) + i) <-
          Platform.route_link platform msg_src.(mi) msg_dst.(mi) i
      done
    done;
  (* Dense ids, in link order, for the links some route uses: the arena
     and [reset] scale with the links the schedule books, not with the
     platform's (m² on the clique). *)
  let phys =
    let dense = Array.make (Platform.link_count platform) (-1) in
    Array.iter (fun l -> dense.(l) <- 0) route_dat;
    let n = ref 0 in
    Array.iteri
      (fun l d ->
        if d = 0 then begin
          dense.(l) <- !n;
          incr n
        end)
      dense;
    Array.iteri (fun k l -> route_dat.(k) <- dense.(l)) route_dat;
    !n
  in

  (* -- resource chains: [Oracle_replay.run] sorts each port's and each
        link's messages by (key1, key2, id). --------------------------- *)
  let one_port = model = Netstate.One_port in
  let empty = ([| 0 |], [||]) in
  let (send_off, send_dat), (recv_off, recv_dat), (link_off, link_dat) =
    if not contended then (empty, empty, empty)
    else begin
      let k1 = Array.make nmsgs 0. and k2 = Array.make nmsgs 0. in
      let tmp = Array.make (max nmsgs (Array.length route_dat)) 0 in
      Array.iteri
        (fun mi msg ->
          k1.(mi) <- msg.Netstate.m_leg_start;
          k2.(mi) <- msg.Netstate.m_leg_finish)
        msgs;
      let send =
        if one_port then
          resource_chains ~k1 ~k2 ~tmp m ~hop:msg_src ~hop_off:Fun.id nmsgs
        else empty
      in
      let links =
        resource_chains ~k1 ~k2 ~tmp phys ~hop:route_dat
          ~hop_off:(Array.get route_off) nmsgs
      in
      let recv =
        if one_port then begin
          Array.iteri
            (fun mi msg ->
              k1.(mi) <- msg.Netstate.m_arrival -. msg.Netstate.m_duration;
              k2.(mi) <- msg.Netstate.m_arrival)
            msgs;
          resource_chains ~k1 ~k2 ~tmp m ~hop:msg_dst ~hop_off:Fun.id nmsgs
        end
        else empty
      in
      (send, recv, links)
    end
  in

  (* equal sort keys: a tie group of a send port or link, or of a
     receive port *)
  let same_leg i j =
    msgs.(i).Netstate.m_leg_start = msgs.(j).Netstate.m_leg_start
    && msgs.(i).Netstate.m_leg_finish = msgs.(j).Netstate.m_leg_finish
  in
  let same_reception i j =
    let mi = msgs.(i) and mj = msgs.(j) in
    mi.Netstate.m_arrival -. mi.Netstate.m_duration
    = mj.Netstate.m_arrival -. mj.Netstate.m_duration
    && mi.Netstate.m_arrival = mj.Netstate.m_arrival
  in

  (* -- edges.  [emit_edges] produces every edge in
        [Oracle_replay.run]'s order; it runs twice, counting degrees,
        then filling each node's CSR slice from its end, which
        reproduces the newest-first order of [Oracle_replay.run]'s
        adjacency lists with no edge buffer. --------------------------- *)
  let emit_edges edge =
    (* data edges *)
    for mi = 0 to nmsgs - 1 do
      edge msg_src_rn.(mi) (nreplicas + mi)
    done;
    let rec locals rn = function
      | [] -> ()
      | Schedule.Local { l_pred; l_pred_replica; _ } :: rest ->
          edge (replica_node l_pred l_pred_replica) rn;
          locals rn rest
      | Schedule.Message _ :: rest -> locals rn rest
    in
    for rn = 0 to nreplicas - 1 do
      locals rn (replica rn).Schedule.r_inputs;
      for mi = cons_first.(rn + 1) - 1 downto cons_first.(rn) do
        edge (nreplicas + mi) rn
      done
    done;
    (* resource-order edges: chain consecutive static events *)
    let rec proc_chain prev = function
      | [] -> ()
      | (r : Schedule.replica) :: rest ->
          let n = replica_node r.Schedule.r_task r.Schedule.r_index in
          edge prev n;
          proc_chain n rest
    in
    (* each processor executes its replicas in static start order *)
    for p = 0 to m - 1 do
      match Schedule.on_proc sched p with
      | [] -> ()
      | (r : Schedule.replica) :: rest ->
          proc_chain (replica_node r.Schedule.r_task r.Schedule.r_index) rest
    done;
    (* each tie group of a chain precedes every message of the next
       group (see [Oracle_replay.run]) *)
    let chain same off dat b =
      let hi = off.(b + 1) in
      (* [g0, g1) is the previous group, [g1, g2) the current one *)
      let g0 = ref off.(b) and g1 = ref off.(b) in
      while !g1 < hi do
        let g2 = ref (!g1 + 1) in
        while !g2 < hi && same dat.(!g1) dat.(!g2) do
          incr g2
        done;
        for i = !g0 to !g1 - 1 do
          for j = !g1 to !g2 - 1 do
            edge (nreplicas + dat.(i)) (nreplicas + dat.(j))
          done
        done;
        g0 := !g1;
        g1 := !g2
      done
    in
    (* one-port send then receive port of each processor
       ([Oracle_replay.run] explains why multiport ports get no chains),
       then the links *)
    if one_port then
      for p = 0 to m - 1 do
        chain same_leg send_off send_dat p;
        chain same_reception recv_off recv_dat p
      done;
    if contended then
      for l = 0 to phys - 1 do
        chain same_leg link_off link_dat l
      done
  in
  let adj_off = Array.make (nnodes + 1) 0 in
  let indeg = Array.make nnodes 0 in
  emit_edges (fun a b ->
      adj_off.(a) <- adj_off.(a) + 1;
      indeg.(b) <- indeg.(b) + 1);
  for n = 1 to nnodes do
    adj_off.(n) <- adj_off.(n) + adj_off.(n - 1)
  done;
  let adj_dat = Array.make adj_off.(nnodes) 0 in
  emit_edges (fun a b ->
      let k = adj_off.(a) - 1 in
      adj_off.(a) <- k;
      adj_dat.(k) <- b);

  (* -- supply index: predecessor task -> surviving-supply candidates.
        [Oracle_replay.run] rescans [r_inputs] per predecessor on every
        replay; resolved here once.  A slot lists its messages in id order, then
        its co-located replicas in reverse input order. --------------- *)
  let pred_off = Array.make (nreplicas + 1) 0 in
  for rn = 0 to nreplicas - 1 do
    pred_off.(rn + 1) <-
      pred_off.(rn) + Array.length (Dag.preds dag (rn / eps1))
  done;
  let npred_slots = pred_off.(nreplicas) in
  let pred_task = Array.make npred_slots 0 in
  let sup_off = Array.make (npred_slots + 1) 0 in
  (* [slot_of.(task)]: the current replica's slot for predecessor [task],
     -1 for non-predecessors (whose supplies [Oracle_replay.run]
     ignores) *)
  let slot_of = Array.make v (-1) in
  let each_replica_supply visit =
    let rec locals = function
      | [] -> ()
      | Schedule.Local { l_pred; l_pred_replica; _ } :: rest ->
          let slot = slot_of.(l_pred) in
          if slot >= 0 then visit slot (replica_node l_pred l_pred_replica);
          locals rest
      | Schedule.Message _ :: rest -> locals rest
    in
    for rn = 0 to nreplicas - 1 do
      let preds = Dag.preds dag (rn / eps1) in
      for i = 0 to Array.length preds - 1 do
        let pred = fst preds.(i) in
        pred_task.(pred_off.(rn) + i) <- pred;
        slot_of.(pred) <- pred_off.(rn) + i
      done;
      locals (replica rn).Schedule.r_inputs;
      for mi = cons_first.(rn + 1) - 1 downto cons_first.(rn) do
        let slot = slot_of.(msgs.(mi).Netstate.m_source.Netstate.s_task) in
        if slot >= 0 then visit slot (nreplicas + mi)
      done;
      for i = 0 to Array.length preds - 1 do
        slot_of.(fst preds.(i)) <- -1
      done
    done
  in
  (* count, turn counts into slot ends, fill each slot from its end *)
  each_replica_supply (fun slot _ -> sup_off.(slot) <- sup_off.(slot) + 1);
  for slot = 1 to npred_slots do
    sup_off.(slot) <- sup_off.(slot) + sup_off.(slot - 1)
  done;
  let sup_dat = Array.make sup_off.(npred_slots) 0 in
  each_replica_supply (fun slot node ->
      let k = sup_off.(slot) - 1 in
      sup_off.(slot) <- k;
      sup_dat.(k) <- node);

  (* -- static traversal order ---------------------------------------- *)
  (* Run the Kahn heap once here: the pop order is scenario-independent,
     so every evaluation replays it as a flat array walk.  Draining every
     node doubles as the acyclicity check that lets eval skip it.  The
     comparison is an allocation-free equivalent of
     [Oracle_replay.run]'s polymorphic
     [compare (static_key a) (static_key b)]: keys are finite floats, so
     Float.compare-then-id gives the identical total order. *)
  let cmp a b =
    let d = Float.compare key.(a) key.(b) in
    if d <> 0 then d else Stdlib.compare a b
  in
  let order = Array.make nnodes 0 in
  (let queue = Heap.create ~cmp in
   Array.iteri (fun n d -> if d = 0 then Heap.add queue n) indeg;
   let processed = ref 0 in
   while not (Heap.is_empty queue) do
     let n = Heap.pop_exn queue in
     order.(!processed) <- n;
     incr processed;
     for k = adj_off.(n) to adj_off.(n + 1) - 1 do
       let n' = adj_dat.(k) in
       indeg.(n') <- indeg.(n') - 1;
       if indeg.(n') = 0 then Heap.add queue n'
     done
   done;
   if !processed <> nnodes then
     failwith "Replay.compile: cyclic schedule (inconsistent static order)");
  let port_slots =
    match model with Netstate.Multiport k -> max 1 k | _ -> 1
  in
  {
    c_m = m;
    c_v = v;
    c_eps1 = eps1;
    c_contended = contended;
    c_port_slots = port_slots;
    c_nreplicas = nreplicas;
    c_nmsgs = nmsgs;
    c_order = order;
    c_r_proc = r_proc;
    c_r_dur = r_dur;
    c_pred_off = pred_off;
    c_pred_task = pred_task;
    c_sup_off = sup_off;
    c_sup = sup_dat;
    c_msg_src_rn = msg_src_rn;
    c_msg_src = msg_src;
    c_msg_dst = msg_dst;
    c_msg_dur = msg_dur;
    c_route_off = route_off;
    c_route = route_dat;
    c_phys = phys;
    c_sinks = Array.of_list (Dag.exits dag);
    c_one =
      make_arena ~m ~nreplicas ~nmsgs ~port_slots ~phys ~lanes:1 ~record:true;
    c_batch = None;
    c_rows = [||];
  }

(* ==================================================================== *)
(* Scratch arena: reset and the kernel's resource helpers.             *)
(* ==================================================================== *)

(* Reset the first [nl] lanes of [a] for a new chunk. *)
let reset c a nl =
  Array.fill a.a_finish 0 (c.c_nreplicas * nl) infinity;
  if a.a_record then Array.fill a.a_state 0 c.c_nreplicas st_crashed;
  Array.fill a.a_delivered 0 (c.c_nmsgs * nl) infinity;
  Array.fill a.a_exec_free 0 (c.c_m * nl) 0.;
  if c.c_contended then begin
    let ports = c.c_m * c.c_port_slots * nl in
    Array.fill a.a_send_free 0 ports 0.;
    Array.fill a.a_recv_free 0 ports 0.;
    Array.fill a.a_phys_free 0 (c.c_phys * nl) 0.
  end

(* [Float.max] without its two [sign_bit] calls, which ocamlopt emits as
   C calls: the larger operand, and [+0.] for a pair of zeros of mixed
   sign.  Equal to [Float.max] on all non-nan operands, and the kernel
   never forms a nan time.  The body of [Flt.fmax], kept local: dune's
   dev profile compiles with -opaque, where a call into [Flt] is not
   inlined and boxes both operands on every lane step. *)
let[@inline] fmax (x : float) y =
  if y > x then y else if y = x && x = 0. then x +. y else x

(* The cell of the first earliest-free of the [slots] port slots whose
   first cell is [base] (the others follow every [nl] cells).  Slot times
   are never nan or -0., so its time is the minimum [Oracle_replay.run]
   folds with [Float.min]. *)
let[@inline] argmin_slot (free : float array) base ~slots ~nl =
  let best = ref base in
  for i = 1 to slots - 1 do
    let j = base + (i * nl) in
    if Array.unsafe_get free j < Array.unsafe_get free !best then best := j
  done;
  !best

(* Latest free time, in lane [lane], over the physical links of message
   [mi]'s route. *)
let[@inline] link_free c a nl lane mi =
  let route = c.c_route and phys_free = a.a_phys_free in
  let acc = ref 0. in
  for k = c.c_route_off.(mi) to Array.unsafe_get c.c_route_off (mi + 1) - 1 do
    let f =
      Array.unsafe_get phys_free ((Array.unsafe_get route k * nl) + lane)
    in
    if f > !acc then acc := f
  done;
  !acc

(* Book message [mi]'s leg, in lane [lane], on the send-slot cell [spos]
   and on every link of its route. *)
let[@inline] book_leg c a nl lane spos mi leg_finish =
  Array.unsafe_set a.a_send_free spos leg_finish;
  let route = c.c_route and phys_free = a.a_phys_free in
  for k = c.c_route_off.(mi) to Array.unsafe_get c.c_route_off (mi + 1) - 1 do
    Array.unsafe_set phys_free
      ((Array.unsafe_get route k * nl) + lane)
      leg_finish
  done

(* The earliest surviving supply, in lane [lane], of predecessor slot
   [slot]: [infinity] if none survives. *)
let[@inline] slot_ready c a nl lane slot =
  let nreplicas = c.c_nreplicas and sup = c.c_sup in
  let finish = a.a_finish and delivered = a.a_delivered in
  let ready = ref infinity in
  for k = Array.unsafe_get c.c_sup_off slot
      to Array.unsafe_get c.c_sup_off (slot + 1) - 1 do
    let node = Array.unsafe_get sup k in
    let t =
      if node < nreplicas then Array.unsafe_get finish ((node * nl) + lane)
      else Array.unsafe_get delivered (((node - nreplicas) * nl) + lane)
    in
    if t < !ready then ready := t
  done;
  !ready

(* Replica [rn]'s data-ready time in lane [lane]: the latest over its
   predecessors of the earliest surviving supply.  [infinity] iff some
   predecessor has no surviving supply (the replica is starved). *)
let[@inline] data_ready c a nl lane rn =
  let data_ready = ref 0. in
  for slot = c.c_pred_off.(rn) to Array.unsafe_get c.c_pred_off (rn + 1) - 1 do
    data_ready := fmax !data_ready (slot_ready c a nl lane slot)
  done;
  !data_ready

(* The first predecessor of the starved replica [rn] with no surviving
   supply in lane [lane].  Every supply precedes [rn] in [c_order], so
   the arena already holds their final values. *)
let starving_pred c a nl lane rn =
  let slot = ref c.c_pred_off.(rn) in
  while slot_ready c a nl lane !slot < infinity do
    incr slot
  done;
  c.c_pred_task.(!slot)

(* ==================================================================== *)
(* The crash-time kernel                                                *)
(* ==================================================================== *)

(* Replay a chunk of [nl] crash-time scenarios over the reset arena [a]:
   one pass over [c_order], and at each node a loop over the lanes that
   does, per lane, what one scenario's replay does, in the same order.
   Per replica it writes the finish (and, in an outcome arena, the start,
   state and starving predecessor); per message, the delivery.
   Lane [lane] replays crash row [row0 + lane] of [crash]:
   [crash.((row0 + lane) * m + p)] is the instant processor [p] dies
   ([neg_infinity]: dead from the start); it is read, never written or
   retained.  Unchecked reads index compile-built arrays, arena cells of
   the chunk and rows the caller range-checked, in range by
   construction. *)
let walk c a ~crash ~row0 nl =
  let m = c.c_m in
  let nreplicas = c.c_nreplicas in
  let order = c.c_order in
  let contended = c.c_contended in
  let slots = c.c_port_slots in
  let record = a.a_record in
  let finish = a.a_finish in
  let exec_free = a.a_exec_free in
  let send_free = a.a_send_free and recv_free = a.a_recv_free in
  for k = 0 to Array.length order - 1 do
    let n = Array.unsafe_get order k in
    if n < nreplicas then begin
      let rn = n in
      let p = Array.unsafe_get c.c_r_proc rn in
      let dur = Array.unsafe_get c.c_r_dur rn in
      for lane = 0 to nl - 1 do
        let pl = (p * nl) + lane in
        let ri = (rn * nl) + lane in
        let dies = Array.unsafe_get crash (((row0 + lane) * m) + p) in
        if dies = neg_infinity then ()
          (* dead from the start: stays st_crashed, starved or not *)
        else begin
          let ready = data_ready c a nl lane rn in
          if ready = infinity then begin
            if record then begin
              Array.unsafe_set a.a_state ri st_starved;
              Array.unsafe_set a.a_starved ri (starving_pred c a nl lane rn)
            end
          end
          else begin
            let start = fmax (Array.unsafe_get exec_free pl) ready in
            let fin = start +. dur in
            if fin > dies then
              (* the processor dies while (or before) this replica would
                 run: nothing later on it runs either; stays st_crashed *)
              Array.unsafe_set exec_free pl infinity
            else begin
              Array.unsafe_set exec_free pl
                (fmax (Array.unsafe_get exec_free pl) fin);
              Array.unsafe_set finish ri fin;
              if record then begin
                Array.unsafe_set a.a_start ri start;
                Array.unsafe_set a.a_state ri st_ran
              end
            end
          end
        end
      done
    end
    else begin
      let mi = n - nreplicas in
      let src_rn = Array.unsafe_get c.c_msg_src_rn mi in
      let src = Array.unsafe_get c.c_msg_src mi in
      let dst = Array.unsafe_get c.c_msg_dst mi in
      let w = Array.unsafe_get c.c_msg_dur mi in
      for lane = 0 to nl - 1 do
        let src_finish = Array.unsafe_get finish ((src_rn * nl) + lane) in
        (* a source that never produced emits nothing: delivery stays
           infinity *)
        if src_finish <> infinity then begin
          let sbase = (src * slots * nl) + lane in
          let spos =
            if contended then argmin_slot send_free sbase ~slots ~nl else 0
          in
          let leg_start =
            if not contended then src_finish
            else
              fmax
                (Array.unsafe_get send_free spos)
                (fmax src_finish (link_free c a nl lane mi))
          in
          let leg_finish = leg_start +. w in
          if
            leg_finish > Array.unsafe_get crash (((row0 + lane) * m) + src)
          then begin
            (* the sender died before the message fully left; its port
               sends nothing further *)
            if contended then
              for s = 0 to slots - 1 do
                Array.unsafe_set send_free (sbase + (s * nl)) infinity
              done
          end
          else begin
            if contended then book_leg c a nl lane spos mi leg_finish;
            let dies = Array.unsafe_get crash (((row0 + lane) * m) + dst) in
            if dies = neg_infinity then ()
            else begin
              let rpos =
                if contended then
                  argmin_slot recv_free ((dst * slots * nl) + lane) ~slots ~nl
                else 0
              in
              let arrival =
                if not contended then leg_finish
                else w +. fmax (Array.unsafe_get recv_free rpos) leg_start
              in
              if arrival > dies then ()
              else begin
                if contended then Array.unsafe_set recv_free rpos arrival;
                Array.unsafe_set a.a_delivered ((mi * nl) + lane) arrival
              end
            end
          end
        end
      done
    end
  done

(* ==================================================================== *)
(* Collectors: read one lane of the arena after a walk.                 *)
(* ==================================================================== *)

type degradation = {
  d_tasks : int;
  d_task_count : int;
  d_sinks : int;
  d_sink_count : int;
  d_frontier : float;
}

(* The earliest finish over task [task]'s replicas in lane [lane]. *)
let[@inline] task_finish c a nl lane task =
  let earliest = ref infinity in
  for rn = task * c.c_eps1 to ((task + 1) * c.c_eps1) - 1 do
    let f = Array.unsafe_get a.a_finish ((rn * nl) + lane) in
    if f < !earliest then earliest := f
  done;
  !earliest

(* The latest over tasks of the earliest replica finish; [nan] if some
   task finished no replica. *)
let[@inline] latency_of_lane c a nl lane =
  let latency = ref 0. in
  let failed = ref false in
  for task = 0 to c.c_v - 1 do
    let earliest = task_finish c a nl lane task in
    if earliest = infinity then failed := true
    else latency := fmax !latency earliest
  done;
  if !failed then nan else !latency

(* The surviving frontier, without materializing per-replica outcomes:
   one pass over the tasks, then one over the (few) sinks. *)
let degradation_of_lane c a nl lane =
  let tasks_done = ref 0 in
  let frontier = ref 0. in
  for task = 0 to c.c_v - 1 do
    let earliest = task_finish c a nl lane task in
    if earliest < infinity then begin
      incr tasks_done;
      if earliest > !frontier then frontier := earliest
    end
  done;
  let sinks_done = ref 0 in
  Array.iter
    (fun s -> if task_finish c a nl lane s < infinity then incr sinks_done)
    c.c_sinks;
  {
    d_tasks = !tasks_done;
    d_task_count = c.c_v;
    d_sinks = !sinks_done;
    d_sink_count = Array.length c.c_sinks;
    d_frontier = !frontier;
  }

(* The outcome record, from the outcome arena. *)
let collect_outcome c =
  let a = c.c_one in
  let replica_result =
    Array.init c.c_v (fun task ->
        Array.init c.c_eps1 (fun idx ->
            let rn = (task * c.c_eps1) + idx in
            if a.a_state.(rn) = st_ran then
              Ran { start = a.a_start.(rn); finish = a.a_finish.(rn) }
            else if a.a_state.(rn) = st_starved then Starved a.a_starved.(rn)
            else Crashed))
  in
  (* a replica has a finite finish iff it is [Ran] *)
  let failed = ref [] in
  let latency = ref 0. in
  for task = 0 to c.c_v - 1 do
    let earliest = task_finish c a 1 0 task in
    if earliest = infinity then failed := task :: !failed
    else latency := fmax !latency earliest
  done;
  let failed_tasks = List.rev !failed in
  {
    completed = failed_tasks = [];
    latency = (if failed_tasks = [] then !latency else nan);
    failed_tasks;
    replicas = replica_result;
  }

(* ==================================================================== *)
(* Evaluation: one scenario, or a block of them.                        *)
(* ==================================================================== *)

let run_crash c ~crash_time =
  Obs_metrics.incr m_replays;
  if Array.length crash_time <> c.c_m then
    invalid_arg "Replay.eval: crash_time length <> processor count";
  let a = c.c_one in
  reset c a 1;
  walk c a ~crash:crash_time ~row0:0 1

let eval c ~crash_time =
  Obs_prof.phase ~cat:"sim" "replay.eval" @@ fun () ->
  run_crash c ~crash_time;
  collect_outcome c

(* the one-row array [write] makes of [crashes] *)
let crash_row c write crashes =
  let row = Array.create_float c.c_m in
  write row ~m:c.c_m 0 crashes;
  row

let eval_crashed c ~crashed =
  eval c ~crash_time:(crash_row c Scenario.write_from_start crashed)

(* [eval_batch] is the throughput path: the kernel walks a chunk of up to
   [batch_lanes] scenarios at once over one arena, and one result per
   scenario lands in pre-sized result arrays — no per-scenario records,
   lists, or outcome materialization. *)

type batch = {
  br_count : int;
  br_latency : float array;
      (* per scenario: frontier latency, or nan if some task failed *)
  br_tasks : int array;     (* filled only with ~degradation *)
  br_sinks : int array;
  br_frontier : float array;
}

let g_batch_size =
  Obs_metrics.gauge ~help:"scenarios in the last eval_batch block"
    "replay.batch_size"

let g_throughput =
  Obs_metrics.gauge
    ~help:
      "replay scenarios evaluated per second (last batch or campaign, \
       whichever path ran)"
    "replay.scenarios_per_sec"

(* Lanes per chunk, and the cap on a batch arena's node cells
   ((replicas + messages) x lanes) that keeps very large schedules from
   trading memory for lanes.  DESIGN.md "One crash-time kernel" has the
   measurements behind both. *)
let batch_lanes = 32
let batch_cells = 1 lsl 20

let batch_arena c =
  match c.c_batch with
  | Some a -> a
  | None ->
      let nodes = max 1 (c.c_nreplicas + c.c_nmsgs) in
      let a =
        make_arena ~m:c.c_m ~nreplicas:c.c_nreplicas ~nmsgs:c.c_nmsgs
          ~port_slots:c.c_port_slots ~phys:c.c_phys
          ~lanes:(max 1 (min batch_lanes (batch_cells / nodes)))
          ~record:false
      in
      c.c_batch <- Some a;
      a

let eval_batch ?(cancel = Cancel.never) ?(degradation = false) c rows ~first
    ~count =
  let m = c.c_m in
  if first < 0 || count < 0 || (first + count) * m > Array.length rows then
    invalid_arg "Replay.eval_batch: rows out of range";
  Obs_metrics.incr ~by:count m_replays;
  Obs_metrics.set g_batch_size (float_of_int count);
  Obs_prof.phase ~trace:false ~cat:"sim" "replay.eval_batch" @@ fun () ->
  let t_begin = Obs_clock.now () in
  let br_latency = Array.make count nan in
  let br_tasks = if degradation then Array.make count 0 else [||] in
  let br_sinks = if degradation then Array.make count 0 else [||] in
  let br_frontier = if degradation then Array.make count 0. else [||] in
  let done_ = ref 0 in
  while !done_ < count do
    (* cooperative cancellation poll, once per chunk: an expired request
       deadline aborts between chunks, never mid-arena *)
    Cancel.check cancel;
    let a = batch_arena c in
    let nl = min a.a_lanes (count - !done_) in
    reset c a nl;
    walk c a ~crash:rows ~row0:(first + !done_) nl;
    for lane = 0 to nl - 1 do
      let si = !done_ + lane in
      if not degradation then br_latency.(si) <- latency_of_lane c a nl lane
      else begin
        (* the Monte-Carlo rule: the frontier if everything completed, nan
           otherwise *)
        let d = degradation_of_lane c a nl lane in
        br_tasks.(si) <- d.d_tasks;
        br_sinks.(si) <- d.d_sinks;
        br_frontier.(si) <- d.d_frontier;
        br_latency.(si) <- (if d.d_tasks = c.c_v then d.d_frontier else nan)
      end
    done;
    done_ := !done_ + nl
  done;
  let dt = Obs_clock.now () -. t_begin in
  if dt > 0. && count > 0 then
    Obs_metrics.set g_throughput (float_of_int count /. dt);
  {
    br_count = count;
    br_latency;
    br_tasks;
    br_sinks;
    br_frontier;
  }

let batch_degradation c res j =
  {
    d_tasks = res.br_tasks.(j);
    d_task_count = c.c_v;
    d_sinks = res.br_sinks.(j);
    d_sink_count = Array.length c.c_sinks;
    d_frontier = res.br_frontier.(j);
  }

(* Rows per block of [scan].  The block size never changes a result:
   every lane is evaluated as [eval] would, and results are consumed in
   item order. *)
let batch_block = 256

(* The row buffer of [c], built on first use. *)
let rows_of c =
  if Array.length c.c_rows = 0 then
    c.c_rows <- Array.create_float (batch_block * c.c_m);
  c.c_rows

(* A scan runs in waves of up to [domains] blocks.  The caller fills a
   wave's blocks in item order, [Parallel.map] evaluates them, each on
   its own engine, and the caller consumes the results in item order.
   Block 0 of a wave runs on [c]; block [b > 0] on a copy of [c] that
   shares every compiled array and owns its batch arena and row buffer,
   the only fields [eval_batch] writes, built on first use.  The copies
   die with the call. *)
let scan ?cancel ?degradation ?(domains = 1) c ~fill ~consume items =
  let m = c.c_m in
  let engines =
    Array.init (max 1 domains) (fun b ->
        if b = 0 then c else { c with c_batch = None; c_rows = [||] })
  in
  (* fill the rows of one block on [e], keeping its items in order; the
     rest of [items] is [None] once it is exhausted *)
  let rec take e j acc items =
    if j = batch_block then (j, List.rev acc, Some items)
    else
      match items () with
      | Seq.Cons (x, rest) ->
          fill (rows_of e) ~m j x;
          take e (j + 1) (x :: acc) rest
      | Seq.Nil -> (j, List.rev acc, None)
  in
  let rec fill_wave b items =
    if b = Array.length engines then ([], Some items)
    else
      match take engines.(b) 0 [] items with
      | 0, _, _ -> ([], None)
      | len, taken, rest -> (
          let block = (engines.(b), len, taken) in
          match rest with
          | None -> ([ block ], None)
          | Some rest ->
              let wave, rest = fill_wave (b + 1) rest in
              (block :: wave, rest))
  in
  let eval (e, len, _) =
    eval_batch ?cancel ?degradation e e.c_rows ~first:0 ~count:len
  in
  let rec go consumed items =
    let wave, rest = fill_wave 0 items in
    let results = Parallel.map ~domains:(Array.length engines) eval wave in
    let rec use consumed = function
      | [] -> (
          match rest with None -> consumed | Some rest -> go consumed rest)
      | ((_, len, taken), res) :: blocks ->
          let rec block j = function
            | [] -> use (consumed + len) blocks
            | x :: tl ->
                if consume x res j then block (j + 1) tl else consumed + j + 1
          in
          block 0 taken
    in
    use consumed (List.combine wave results)
  in
  go 0 items

(* -- degradation report ------------------------------------------------ *)

let completion_fraction d =
  if d.d_task_count = 0 then 1.
  else float_of_int d.d_tasks /. float_of_int d.d_task_count

let sink_fraction d =
  if d.d_sink_count = 0 then 1.
  else float_of_int d.d_sinks /. float_of_int d.d_sink_count

(* -- one-shot wrappers ------------------------------------------------- *)

let crash_from_start sched ~crashed =
  eval_crashed (compile sched) ~crashed

let crash_timed sched ~crashes =
  let c = compile sched in
  eval c ~crash_time:(crash_row c Scenario.write_timed crashes)

let fault_free sched =
  let c = compile sched in
  eval c ~crash_time:(Array.make c.c_m infinity)
