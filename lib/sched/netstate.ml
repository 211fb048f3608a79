type model = Macro_dataflow | One_port | Multiport of int

(* Observability: booking decisions recorded here cover every scheduler
   (CAFT, the baselines, the batch variant) since they all book through
   this module.  Only committed bookings record; a [probe] never does. *)
let m_send_wait =
  Obs_metrics.histogram
    ~help:"send-port serialization wait beyond source finish (time units)"
    "net.send_wait"

let m_recv_wait =
  Obs_metrics.histogram
    ~help:"receive-port serialization wait beyond link arrival (time units)"
    "net.recv_wait"

let m_link_busy =
  Obs_metrics.gauge ~help:"total reserved physical-link time (time units)"
    "net.link_busy_time"

let m_msgs_remote =
  Obs_metrics.counter ~help:"inter-processor messages booked"
    "net.messages.remote"

let m_msgs_local =
  Obs_metrics.counter ~help:"co-located supplies (no link traffic)"
    "net.messages.local"

let ports_of_model = function
  | Macro_dataflow -> 1 (* unused *)
  | One_port -> 1
  | Multiport k ->
      if k < 1 then invalid_arg "Netstate: Multiport needs k >= 1";
      k

type fabric = {
  phys_count : int;
  route : Platform.proc -> Platform.proc -> int list;
}

(* Clique fabric: one dedicated physical link per ordered processor
   pair.  Routes are memoized: [link_ready] asks for one on every leg
   estimate of the placement inner loop, and a fresh cons cell per call
   is measurable GC pressure at 10^5+ tasks. *)
let clique_fabric m =
  let routes = Array.make (m * m) [] in
  let route src dst =
    let l = (src * m) + dst in
    match routes.(l) with
    | [] ->
        let r = [ l ] in
        routes.(l) <- r;
        r
    | r -> r
  in
  { phys_count = m * m; route }

type source = {
  s_task : Dag.task;
  s_replica : int;
  s_proc : Platform.proc;
  s_finish : float;
  s_volume : float;
}

type message = {
  m_source : source;
  m_dst_proc : Platform.proc;
  m_duration : float;
  m_leg_start : float;
  m_leg_finish : float;
  m_arrival : float;
}

type booked = {
  b_start : float;
  b_finish : float;
  b_messages : message list;
  b_local : (Dag.task * int * float) list;
}

(* A task's candidate sources in struct-of-arrays form.  Sources are
   appended in input order (slot by slot, each slot's replicas in order);
   [seal_sources] sorts the permutation [order] by the total key (finish,
   proc, task, replica, input position) once, so each booking walks the
   sorted sequence instead of re-sorting it.  [head.(slot)] restricts a
   slot to one replica index (a one-to-one input); -1 keeps every loaded
   replica of the slot (full replication). *)
type sources = {
  mutable n : int;
  mutable slots : int;
  mutable slot_pred : int array;
  mutable head : int array;
  mutable slot_of : int array;
  mutable task_of : int array;
  mutable replica_of : int array;
  mutable proc_of : int array;
  mutable finish_of : float array;
  mutable volume_of : float array;
  mutable order : int array;
  mutable order_tmp : int array;
}

let create_sources () =
  {
    n = 0;
    slots = 0;
    slot_pred = [||];
    head = [||];
    slot_of = [||];
    task_of = [||];
    replica_of = [||];
    proc_of = [||];
    finish_of = [||];
    volume_of = [||];
    order = [||];
    order_tmp = [||];
  }

let clear_sources s =
  s.n <- 0;
  s.slots <- 0

let grow a len fill =
  let b = Array.make (max 8 (2 * len)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add_source s ~slot ~pred ~task ~replica ~proc ~finish ~volume =
  if slot >= Array.length s.head then begin
    let len = max (slot + 1) (Array.length s.head) in
    s.head <- grow s.head len (-1);
    s.slot_pred <- grow s.slot_pred len 0
  end;
  if slot >= s.slots then s.slots <- slot + 1;
  s.slot_pred.(slot) <- pred;
  let i = s.n in
  if i = Array.length s.slot_of then begin
    s.slot_of <- grow s.slot_of i 0;
    s.task_of <- grow s.task_of i 0;
    s.replica_of <- grow s.replica_of i 0;
    s.proc_of <- grow s.proc_of i 0;
    s.finish_of <- grow s.finish_of i 0.;
    s.volume_of <- grow s.volume_of i 0.;
    s.order <- grow s.order i 0;
    s.order_tmp <- grow s.order_tmp i 0
  end;
  s.slot_of.(i) <- slot;
  s.task_of.(i) <- task;
  s.replica_of.(i) <- replica;
  s.proc_of.(i) <- proc;
  s.finish_of.(i) <- finish;
  s.volume_of.(i) <- volume;
  s.n <- i + 1

(* Stable merge sort of [idx.(lo) .. idx.(hi - 1)] under the strict order
   [before ctx], with [tmp] as scratch; insertion sort on short runs.
   Top-level and closure-free, so sorting allocates nothing. *)
let rec sort_indices before ctx idx tmp lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = idx.(i) in
      let j = ref (i - 1) in
      while !j >= lo && before ctx x idx.(!j) do
        idx.(!j + 1) <- idx.(!j);
        decr j
      done;
      idx.(!j + 1) <- x
    done
  else begin
    let mid = (lo + hi) / 2 in
    sort_indices before ctx idx tmp lo mid;
    sort_indices before ctx idx tmp mid hi;
    if before ctx idx.(mid) idx.(mid - 1) then begin
      Array.blit idx lo tmp lo (mid - lo);
      let i = ref lo and j = ref mid and k = ref lo in
      while !i < mid && !j < hi do
        if before ctx idx.(!j) tmp.(!i) then begin
          idx.(!k) <- idx.(!j);
          incr j
        end
        else begin
          idx.(!k) <- tmp.(!i);
          incr i
        end;
        incr k
      done;
      Array.blit tmp !i idx !k (mid - !i)
    end
  end

(* The send order of a booking: non-decreasing source finish, then
   (proc, task, replica), then input position — a total key, so filtering
   the sorted sequence gives the sort of any subset. *)
let source_before s a b =
  let c = Float.compare s.finish_of.(a) s.finish_of.(b) in
  if c <> 0 then c < 0
  else if s.proc_of.(a) <> s.proc_of.(b) then s.proc_of.(a) < s.proc_of.(b)
  else if s.task_of.(a) <> s.task_of.(b) then s.task_of.(a) < s.task_of.(b)
  else if s.replica_of.(a) <> s.replica_of.(b) then
    s.replica_of.(a) < s.replica_of.(b)
  else a < b

let seal_sources s =
  for i = 0 to s.n - 1 do
    s.order.(i) <- i
  done;
  sort_indices source_before s s.order s.order_tmp 0 s.n;
  Array.fill s.head 0 s.slots (-1)

let select_head s ~slot ~replica = s.head.(slot) <- replica
let select_full s ~slot = s.head.(slot) <- -1

let active s i =
  let h = s.head.(s.slot_of.(i)) in
  h < 0 || h = s.replica_of.(i)

let load_inputs_as who s inputs =
  List.iter
    (fun (pred, sources) ->
      if sources = [] then
        invalid_arg (Printf.sprintf "%s: predecessor %d has no source" who pred))
    inputs;
  clear_sources s;
  List.iteri
    (fun slot (pred, sources) ->
      List.iter
        (fun src ->
          add_source s ~slot ~pred ~task:src.s_task ~replica:src.s_replica
            ~proc:src.s_proc ~finish:src.s_finish ~volume:src.s_volume)
        sources)
    inputs;
  seal_sources s

let load_inputs s inputs = load_inputs_as "Netstate.load_inputs" s inputs

type t = {
  platform : Platform.t;
  model : model;
  fabric : fabric;
  clique : bool;  (* [fabric] is the default [clique_fabric] *)
  ready : float array;
  sf : float array array;  (* per-processor send slots (k per port) *)
  rf : float array array;  (* per-processor receive slots *)
  phys : float array;  (* ready time per physical link *)
  (* Booking-kernel scratch, sized to the widest booking seen so far.
     Leg [k] is the k-th remote source in send order: its source index,
     duration, link window and arrival; [leg_order] is the arrival order.
     Per slot: the first-listed co-located source (-1 if none), the
     earliest co-located finish and the earliest remote arrival. *)
  mutable leg_src : int array;
  mutable leg_w : float array;
  mutable leg_start : float array;
  mutable leg_finish : float array;
  mutable leg_arrival : float array;
  mutable leg_order : int array;
  mutable leg_tmp : int array;
  mutable slot_local : int array;
  mutable slot_local_min : float array;
  mutable slot_remote : float array;
  mutable leg_sf : float array;  (* [leg_table]'s per-source SF *)
  (* Undo log of a probe: the port/link cells it wrote (row, index) and
     their previous values, replayed newest first. *)
  mutable undo_row : float array array;
  mutable undo_idx : int array;
  mutable undo_old : float array;
  mutable undo_len : int;
  out : float array;  (* [| b_start; b_finish |] of the last booking *)
  scratch : sources;  (* the list-form inputs of [book_replica] *)
}

type snapshot = {
  snap_ready : float array;
  snap_sf : float array array;
  snap_rf : float array array;
  snap_phys : float array;
}

let create ?(model = One_port) ?fabric platform =
  let m = Platform.proc_count platform in
  let clique = Option.is_none fabric in
  let fabric =
    match fabric with Some f -> f | None -> clique_fabric m
  in
  let k = ports_of_model model in
  {
    platform;
    model;
    fabric;
    clique;
    ready = Array.make m 0.;
    sf = Array.init m (fun _ -> Array.make k 0.);
    rf = Array.init m (fun _ -> Array.make k 0.);
    phys = Array.make fabric.phys_count 0.;
    leg_src = [||];
    leg_w = [||];
    leg_start = [||];
    leg_finish = [||];
    leg_arrival = [||];
    leg_order = [||];
    leg_tmp = [||];
    slot_local = [||];
    slot_local_min = [||];
    slot_remote = [||];
    leg_sf = [||];
    undo_row = [||];
    undo_idx = [||];
    undo_old = [||];
    undo_len = 0;
    out = [| 0.; 0. |];
    scratch = create_sources ();
  }

let model t = t.model
let platform t = t.platform
let fabric t = t.fabric

let snapshot t =
  {
    snap_ready = Array.copy t.ready;
    snap_sf = Array.map Array.copy t.sf;
    snap_rf = Array.map Array.copy t.rf;
    snap_phys = Array.copy t.phys;
  }

let restore t snap =
  Array.blit snap.snap_ready 0 t.ready 0 (Array.length t.ready);
  Array.iteri (fun i row -> Array.blit row 0 t.sf.(i) 0 (Array.length row))
    snap.snap_sf;
  Array.iteri (fun i row -> Array.blit row 0 t.rf.(i) 0 (Array.length row))
    snap.snap_rf;
  Array.blit snap.snap_phys 0 t.phys 0 (Array.length t.phys)

let proc_ready t p = t.ready.(p)

(* the earliest-free slot of a port; with one slot this is the paper's
   scalar SF/RF — fast-pathed because the one-port model queries it once
   per candidate leg estimate in the placement inner loop *)
let min_slot slots =
  if Array.length slots = 1 then Array.unsafe_get slots 0
  else Array.fold_left Float.min infinity slots

(* first earliest-free slot; the annotation keeps the comparison on
   unboxed floats *)
let argmin_slot (slots : float array) =
  let best = ref 0 in
  for i = 1 to Array.length slots - 1 do
    if slots.(i) < slots.(!best) then best := i
  done;
  !best

let send_free t p = min_slot t.sf.(p)
let recv_free t p = min_slot t.rf.(p)

let rec route_max phys acc = function
  | [] -> acc
  | l :: rest -> route_max phys (Float.max acc phys.(l)) rest

let link_ready t ~src ~dst =
  match t.fabric.route src dst with
  | [] -> 0.
  | [ l ] -> t.phys.(l) (* clique fast path *)
  | route -> route_max t.phys 0. route

(* The estimate rows of a placement, candidate-major.  [t.leg_sf] holds
   each source's send-port time, read once: it is the same for every
   destination.  On the default clique the link of [sp -> p] is
   [sp * m + p] (see [clique_fabric]), read without an indirect call to
   the route closure per cell; other fabrics look the route up as the
   kernel does. *)
let leg_table t src ~skip ~est ~w =
  let n = src.n in
  if Array.length t.leg_sf < n then t.leg_sf <- Array.make (max 8 n) 0.;
  let sf = t.leg_sf in
  for k = 0 to n - 1 do
    sf.(k) <- send_free t src.proc_of.(k)
  done;
  let m = Platform.proc_count t.platform in
  for p = 0 to m - 1 do
    if not (Bitset.mem skip p) then begin
      let base = p * n in
      for k = 0 to n - 1 do
        let sp = src.proc_of.(k) in
        if sp = p then begin
          est.(base + k) <- src.finish_of.(k);
          w.(base + k) <- -1.
        end
        else begin
          let wk =
            Platform.comm_time t.platform ~src:sp ~dst:p
              ~volume:src.volume_of.(k)
          in
          let link =
            if t.clique then t.phys.((sp * m) + p)
            else
              match t.fabric.route sp p with
              | [] -> 0.
              | [ l ] -> t.phys.(l)
              | route -> route_max t.phys 0. route
          in
          est.(base + k) <-
            Flt.fmax sf.(k) (Flt.fmax src.finish_of.(k) link) +. wk;
          w.(base + k) <- wk
        end
      done
    end
  done

(* -- the booking kernel ------------------------------------------------ *)

let ensure_kernel t ~slots ~legs =
  if Array.length t.slot_local < slots then begin
    let len = max slots (2 * Array.length t.slot_local) in
    t.slot_local <- Array.make len (-1);
    t.slot_local_min <- Array.make len 0.;
    t.slot_remote <- Array.make len 0.
  end;
  if Array.length t.leg_src < legs then begin
    let len = max legs (2 * Array.length t.leg_src) in
    t.leg_src <- Array.make len 0;
    t.leg_w <- Array.make len 0.;
    t.leg_start <- Array.make len 0.;
    t.leg_finish <- Array.make len 0.;
    t.leg_arrival <- Array.make len 0.;
    t.leg_order <- Array.make len 0;
    t.leg_tmp <- Array.make len 0
  end

(* Record cell [row.(i)]'s current value before a probe overwrites it. *)
let log_cell t row i =
  let n = t.undo_len in
  if n = Array.length t.undo_idx then begin
    t.undo_row <- grow t.undo_row n [||];
    t.undo_idx <- grow t.undo_idx n 0;
    t.undo_old <- grow t.undo_old n 0.
  end;
  t.undo_row.(n) <- row;
  t.undo_idx.(n) <- i;
  t.undo_old.(n) <- row.(i);
  t.undo_len <- n + 1

(* Newest first, so a cell written twice ends at its pre-probe value. *)
let rollback t =
  for j = t.undo_len - 1 downto 0 do
    t.undo_row.(j).(t.undo_idx.(j)) <- t.undo_old.(j)
  done;
  t.undo_len <- 0

(* Reserve every physical link of a route until leg [k]'s finish. *)
let rec reserve_route t ~commit k = function
  | [] -> ()
  | l :: rest ->
      if not commit then log_cell t t.phys l;
      t.phys.(l) <- t.leg_finish.(k);
      reserve_route t ~commit k rest

(* Receive serialization runs in non-decreasing link finish; equal
   finishes keep the send order (leg index). *)
let leg_before t a b =
  let c = Float.compare t.leg_finish.(a) t.leg_finish.(b) in
  c < 0 || (c = 0 && a < b)

(* Book the active sources of [src] for one replica on [proc]; equations
   (4)-(6) of the paper for the one-port case.  Returns the number of
   legs; the legs, their arrivals and the per-slot suppliers stay in the
   scratch, and [t.out] holds the execution window.  With [commit] false
   every port/link write is logged for [rollback] and the execution
   itself is computed but not reserved. *)
let kernel t src ~colocate_exclusive ~proc ~exec ~commit =
  let ns = src.slots and n = src.n in
  ensure_kernel t ~slots:ns ~legs:n;
  let local = t.slot_local
  and local_min = t.slot_local_min
  and remote = t.slot_remote in
  for s = 0 to ns - 1 do
    local.(s) <- -1;
    local_min.(s) <- infinity;
    remote.(s) <- infinity
  done;
  (* Co-located supplies, in input order.  Paper, Section 6: when a
     replica of a predecessor lives on [proc], the other copies of that
     predecessor do not send to [proc] at all (unless
     [colocate_exclusive] is off). *)
  for i = 0 to n - 1 do
    if src.proc_of.(i) = proc && active src i then begin
      let s = src.slot_of.(i) in
      if local.(s) < 0 then local.(s) <- i;
      local_min.(s) <- Float.min local_min.(s) src.finish_of.(i)
    end
  done;
  (* Remote legs in send order, which serializes same-source sends
     deterministically.  Under a routed fabric a leg reserves every
     physical link of its route for its whole duration (circuit-style,
     "at most one message on a given link at a time"). *)
  let nl = ref 0 in
  for j = 0 to n - 1 do
    let i = src.order.(j) in
    let sp = src.proc_of.(i) in
    if
      sp <> proc && active src i
      && not (colocate_exclusive && local.(src.slot_of.(i)) >= 0)
    then begin
      let k = !nl in
      let w =
        Platform.comm_time t.platform ~src:sp ~dst:proc ~volume:src.volume_of.(i)
      in
      t.leg_src.(k) <- i;
      t.leg_w.(k) <- w;
      (match t.model with
      | Macro_dataflow ->
          t.leg_start.(k) <- src.finish_of.(i);
          t.leg_finish.(k) <- src.finish_of.(i) +. w
      | One_port | Multiport _ ->
          let row = t.sf.(sp) in
          let slot = argmin_slot row in
          let route = t.fabric.route sp proc in
          let link =
            match route with
            | [] -> 0.
            | [ l ] -> t.phys.(l)
            | _ -> route_max t.phys 0. route
          in
          let start = Float.max row.(slot) (Float.max src.finish_of.(i) link) in
          t.leg_start.(k) <- start;
          t.leg_finish.(k) <- start +. w;
          if not commit then log_cell t row slot;
          row.(slot) <- start +. w;
          reserve_route t ~commit k route;
          if commit && Obs_metrics.enabled () then begin
            Obs_metrics.observe m_send_wait (start -. src.finish_of.(i));
            Obs_metrics.add m_link_busy
              (w *. float_of_int (List.length route))
          end);
      nl := k + 1
    end
  done;
  let nl = !nl in
  (* Serialize arrivals on the receive slots, earliest-free first
     (equation (6), with the arrival-chaining fix); with one slot this is
     the paper's RF chain. *)
  for k = 0 to nl - 1 do
    t.leg_order.(k) <- k
  done;
  sort_indices leg_before t t.leg_order t.leg_tmp 0 nl;
  for j = 0 to nl - 1 do
    let k = t.leg_order.(j) in
    let arrival =
      match t.model with
      | Macro_dataflow -> t.leg_finish.(k)
      | One_port | Multiport _ ->
          let row = t.rf.(proc) in
          let slot = argmin_slot row in
          let w = t.leg_w.(k) and leg_start = t.leg_start.(k) in
          let arrival = w +. Float.max row.(slot) leg_start in
          if commit && Obs_metrics.enabled () then
            Obs_metrics.observe m_recv_wait (arrival -. w -. leg_start);
          if not commit then log_cell t row slot;
          row.(slot) <- arrival;
          arrival
    in
    t.leg_arrival.(k) <- arrival;
    let s = src.slot_of.(t.leg_src.(k)) in
    remote.(s) <- Float.min remote.(s) arrival
  done;
  (* The replica may start once at least one source of every predecessor
     has delivered ("first complete input set"), and once the processor
     is ready. *)
  let data_ready = ref 0. in
  for s = 0 to ns - 1 do
    let l = local.(s) in
    let local_ready =
      if l < 0 then infinity
      else if colocate_exclusive then src.finish_of.(l)
      else local_min.(s)
    in
    data_ready := Float.max !data_ready (Float.min local_ready remote.(s))
  done;
  (* Execution: the paper's list schedulers append after the last task
     of the processor (ready time r(P)). *)
  let start = Float.max t.ready.(proc) !data_ready in
  let finish = start +. exec in
  if commit then t.ready.(proc) <- finish;
  t.out.(0) <- start;
  t.out.(1) <- finish;
  nl

let probe t src ~colocate_exclusive ~proc ~exec =
  match kernel t src ~colocate_exclusive ~proc ~exec ~commit:false with
  | _ ->
      rollback t;
      (t.out.(0), t.out.(1))
  | exception e ->
      rollback t;
      raise e

let commit t src ~colocate_exclusive ~proc ~exec =
  let nl = kernel t src ~colocate_exclusive ~proc ~exec ~commit:true in
  let messages = ref [] in
  for j = nl - 1 downto 0 do
    let k = t.leg_order.(j) in
    let i = t.leg_src.(k) in
    messages :=
      {
        m_source =
          {
            s_task = src.task_of.(i);
            s_replica = src.replica_of.(i);
            s_proc = src.proc_of.(i);
            s_finish = src.finish_of.(i);
            s_volume = src.volume_of.(i);
          };
        m_dst_proc = proc;
        m_duration = t.leg_w.(k);
        m_leg_start = t.leg_start.(k);
        m_leg_finish = t.leg_finish.(k);
        m_arrival = t.leg_arrival.(k);
      }
      :: !messages
  done;
  let locals = ref [] in
  for s = src.slots - 1 downto 0 do
    let l = t.slot_local.(s) in
    if l >= 0 then
      locals := (src.slot_pred.(s), src.replica_of.(l), src.finish_of.(l)) :: !locals
  done;
  if Obs_metrics.enabled () then begin
    Obs_metrics.incr ~by:nl m_msgs_remote;
    Obs_metrics.incr ~by:(List.length !locals) m_msgs_local
  end;
  {
    b_start = t.out.(0);
    b_finish = t.out.(1);
    b_messages = !messages;
    b_local = !locals;
  }

let book_exec_only t ~proc ~exec =
  clear_sources t.scratch;
  commit t t.scratch ~colocate_exclusive:true ~proc ~exec

let book_replica ?(colocate_exclusive = true) t ~proc ~exec ~inputs =
  load_inputs_as "Netstate.book_replica" t.scratch inputs;
  commit t t.scratch ~colocate_exclusive ~proc ~exec
