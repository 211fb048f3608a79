(* Phase-attribution profiler.

   [phase "replay.eval" f] charges f's wall time and GC activity to the
   (phase, worker) pair that ran it, where the worker is the
   [Parallel.map] slot of the running domain: a map spawns fresh domains
   on every call, but the same slots.  Storage follows the same sharding
   discipline as Obs_metrics: each domain owns a DLS-local table of
   phase cells plus a stack of open frames, so recording never touches
   shared state; shards of terminated domains are folded into a global
   retired table (keyed by phase name x worker slot) before Domain.join
   returns, and [report] merges retired + live state under one mutex.

   Wall time is inclusive; [self] subtracts the time spent in nested
   phases, so for any domain the self times of its phases partition the
   profiled wall (plus unattributed gaps).  GC deltas come from
   [Gc.quick_stat], whose allocation counters are per-domain in OCaml 5
   — exactly the attribution we want.

   Work-stealing telemetry comes from [Parallel.set_monitor]: enabling
   the profiler installs a monitor that accumulates per-worker-slot
   busy/steal-idle/items across every [Parallel.map] while enabled.
   Worker slot 0 is always the calling domain. *)

type cell = {
  mutable p_count : int;
  mutable p_wall : float;
  mutable p_self : float;
  mutable p_minor_words : float;
  mutable p_major_words : float;
  mutable p_minor_cols : int;
  mutable p_major_cols : int;
}

type frame = {
  fr_cell : cell;
  fr_t0 : float;
  fr_minor0 : float;
  fr_major0 : float;
  fr_mincol0 : int;
  fr_majcol0 : int;
  mutable fr_child : float;  (* wall spent in nested phases *)
}

type shard = {
  ps_domain : int;
  ps_cells : (string, cell) Hashtbl.t;
  mutable ps_stack : frame list;
}

let mk_cell () =
  {
    p_count = 0;
    p_wall = 0.;
    p_self = 0.;
    p_minor_words = 0.;
    p_major_words = 0.;
    p_minor_cols = 0;
    p_major_cols = 0;
  }

let mutex = Mutex.create ()
let enabled_flag = Atomic.make false
let live_shards : shard list ref = ref []

(* (phase, domain) -> cell, for shards whose domain terminated *)
let retired : (string * int, cell) Hashtbl.t = Hashtbl.create 32

(* worker slot -> accumulated Parallel.map telemetry *)
type wcell = {
  mutable w_maps : int;
  mutable w_items : int;
  mutable w_busy : float;
  mutable w_idle : float;
  mutable w_attempts : int;
}

let workers : (int, wcell) Hashtbl.t = Hashtbl.create 8
let t_origin = ref (Obs_clock.now ())

let with_lock f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let fold_cell_into tbl name domain (c : cell) =
  let base =
    match Hashtbl.find_opt tbl (name, domain) with
    | Some b -> b
    | None ->
        let b = mk_cell () in
        Hashtbl.replace tbl (name, domain) b;
        b
  in
  base.p_count <- base.p_count + c.p_count;
  base.p_wall <- base.p_wall +. c.p_wall;
  base.p_self <- base.p_self +. c.p_self;
  base.p_minor_words <- base.p_minor_words +. c.p_minor_words;
  base.p_major_words <- base.p_major_words +. c.p_major_words;
  base.p_minor_cols <- base.p_minor_cols + c.p_minor_cols;
  base.p_major_cols <- base.p_major_cols + c.p_major_cols

let fold_cell name domain c = fold_cell_into retired name domain c

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          ps_domain = Parallel.worker_slot ();
          ps_cells = Hashtbl.create 16;
          ps_stack = [];
        }
      in
      with_lock (fun () -> live_shards := s :: !live_shards);
      Domain.at_exit (fun () ->
          with_lock (fun () ->
              Hashtbl.iter (fun name c -> fold_cell name s.ps_domain c) s.ps_cells;
              live_shards := List.filter (fun s' -> s' != s) !live_shards));
      s)

(* -- enable / disable --------------------------------------------------- *)

let record_map_stats (st : Parallel.map_stats) =
  with_lock (fun () ->
      List.iter
        (fun (w : Parallel.worker_stats) ->
          let c =
            match Hashtbl.find_opt workers w.Parallel.ws_worker with
            | Some c -> c
            | None ->
                let c =
                  { w_maps = 0; w_items = 0; w_busy = 0.; w_idle = 0.; w_attempts = 0 }
                in
                Hashtbl.replace workers w.Parallel.ws_worker c;
                c
          in
          c.w_maps <- c.w_maps + 1;
          c.w_items <- c.w_items + w.Parallel.ws_items;
          c.w_busy <- c.w_busy +. w.Parallel.ws_busy_s;
          c.w_idle <- c.w_idle +. w.Parallel.ws_idle_s;
          c.w_attempts <- c.w_attempts + w.Parallel.ws_steal_attempts)
        st.Parallel.ms_workers)

let enabled () = Atomic.get enabled_flag

let set_enabled b =
  Atomic.set enabled_flag b;
  Parallel.set_monitor (if b then Some record_map_stats else None)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset retired;
      Hashtbl.reset workers;
      List.iter
        (fun s ->
          Hashtbl.reset s.ps_cells;
          s.ps_stack <- [])
        !live_shards;
      t_origin := Obs_clock.now ())

(* -- recording ---------------------------------------------------------- *)

let really_phase name f =
  let s = Domain.DLS.get shard_key in
  let cell =
    match Hashtbl.find_opt s.ps_cells name with
    | Some c -> c
    | None ->
        let c = mk_cell () in
        Hashtbl.replace s.ps_cells name c;
        c
  in
  (* [Gc.minor_words] reads this domain's allocation pointer, so minor
     words are attributed exactly per domain.  [quick_stat] word counters
     aggregate across ALL domains in OCaml 5 — using them here would
     charge every concurrent domain's allocation to every open phase (we
     measured exactly that: 4 domains each reporting the global total).
     Major words and collection counts only exist process-globally, so
     those columns read as "GC activity observed during the phase". *)
  let g0 = Gc.quick_stat () in
  let fr =
    {
      fr_cell = cell;
      fr_t0 = Obs_clock.now ();
      fr_minor0 = Gc.minor_words ();
      fr_major0 = g0.Gc.major_words;
      fr_mincol0 = g0.Gc.minor_collections;
      fr_majcol0 = g0.Gc.major_collections;
      fr_child = 0.;
    }
  in
  s.ps_stack <- fr :: s.ps_stack;
  Fun.protect f
    ~finally:(fun () ->
      let t1 = Obs_clock.now () in
      let g1 = Gc.quick_stat () in
      let dt = Float.max 0. (t1 -. fr.fr_t0) in
      (match s.ps_stack with
      | top :: rest when top == fr -> s.ps_stack <- rest
      | _ ->
          (* unbalanced unwind (an exception tore through several frames):
             drop every frame up to ours *)
          let rec pop = function
            | top :: rest -> if top == fr then rest else pop rest
            | [] -> []
          in
          s.ps_stack <- pop s.ps_stack);
      cell.p_count <- cell.p_count + 1;
      cell.p_wall <- cell.p_wall +. dt;
      cell.p_self <- cell.p_self +. Float.max 0. (dt -. fr.fr_child);
      cell.p_minor_words <-
        cell.p_minor_words +. Float.max 0. (Gc.minor_words () -. fr.fr_minor0);
      cell.p_major_words <-
        cell.p_major_words +. Float.max 0. (g1.Gc.major_words -. fr.fr_major0);
      cell.p_minor_cols <-
        cell.p_minor_cols + max 0 (g1.Gc.minor_collections - fr.fr_mincol0);
      cell.p_major_cols <-
        cell.p_major_cols + max 0 (g1.Gc.major_collections - fr.fr_majcol0);
      match s.ps_stack with
      | parent :: _ -> parent.fr_child <- parent.fr_child +. dt
      | [] -> ())

(* [phase] doubles as a trace-span site: when tracing is on the phase
   emits a span under [cat] whether or not profiling is, so instrumented
   code can use [Obs_prof.phase] as its only annotation and traces stay
   identical to the pre-profiler ones.  [~trace:false] keeps a phase out
   of traces entirely — for per-scenario hot paths whose thousands of
   spans would drown a timeline that the profile table summarizes. *)
let phase ?(trace = true) ?(cat = "prof") name f =
  let g = if Atomic.get enabled_flag then fun () -> really_phase name f else f in
  if trace && Obs_trace.enabled () then Obs_trace.with_span ~cat name g
  else g ()

(* -- reporting ---------------------------------------------------------- *)

type phase_stat = {
  ph_name : string;
  ph_domain : int;
  ph_count : int;
  ph_wall_s : float;
  ph_self_s : float;
  ph_minor_words : float;
  ph_major_words : float;
  ph_minor_collections : int;
  ph_major_collections : int;
}

type worker_stat = {
  wk_worker : int;
  wk_maps : int;
  wk_items : int;
  wk_busy_s : float;
  wk_idle_s : float;
  wk_steal_attempts : int;
}

type report = {
  r_wall_s : float;
  r_phases : phase_stat list;
  r_workers : worker_stat list;
}

let stat_of_cell name domain (c : cell) =
  {
    ph_name = name;
    ph_domain = domain;
    ph_count = c.p_count;
    ph_wall_s = c.p_wall;
    ph_self_s = c.p_self;
    ph_minor_words = c.p_minor_words;
    ph_major_words = c.p_major_words;
    ph_minor_collections = c.p_minor_cols;
    ph_major_collections = c.p_major_cols;
  }

let report () =
  with_lock (fun () ->
      (* merge retired and live cells per (phase, domain); a domain id is
         never reused, so a live shard can only collide with retired
         state from its own earlier life — impossible — but merging keeps
         the invariant trivially true either way *)
      let acc : (string * int, cell) Hashtbl.t = Hashtbl.create 32 in
      let add name domain c = fold_cell_into acc name domain c in
      Hashtbl.iter (fun (name, domain) c -> add name domain c) retired;
      List.iter
        (fun s -> Hashtbl.iter (fun name c -> add name s.ps_domain c) s.ps_cells)
        !live_shards;
      let phases =
        Hashtbl.fold
          (fun (name, domain) c l -> stat_of_cell name domain c :: l)
          acc []
        |> List.sort (fun a b ->
               compare (a.ph_name, a.ph_domain) (b.ph_name, b.ph_domain))
      in
      let workers =
        Hashtbl.fold
          (fun slot c l ->
            {
              wk_worker = slot;
              wk_maps = c.w_maps;
              wk_items = c.w_items;
              wk_busy_s = c.w_busy;
              wk_idle_s = c.w_idle;
              wk_steal_attempts = c.w_attempts;
            }
            :: l)
          workers []
        |> List.sort (fun a b -> compare a.wk_worker b.wk_worker)
      in
      {
        r_wall_s = Obs_clock.now () -. !t_origin;
        r_phases = phases;
        r_workers = workers;
      })

(* -- rendering ---------------------------------------------------------- *)

let fmt_s x = Printf.sprintf "%.3f" x

let fmt_words w =
  if w >= 1e6 then Printf.sprintf "%.1fM" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fk" (w /. 1e3)
  else Printf.sprintf "%.0f" w

let to_table r =
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left; Text_table.Left ]
      [
        "phase"; "domain"; "calls"; "wall s"; "self s"; "minor w"; "major w";
        "gc min/maj";
      ]
  in
  List.iter
    (fun p ->
      Text_table.add_row t
        [
          p.ph_name;
          string_of_int p.ph_domain;
          string_of_int p.ph_count;
          fmt_s p.ph_wall_s;
          fmt_s p.ph_self_s;
          fmt_words p.ph_minor_words;
          fmt_words p.ph_major_words;
          Printf.sprintf "%d/%d" p.ph_minor_collections p.ph_major_collections;
        ])
    r.r_phases;
  List.iter
    (fun w ->
      Text_table.add_row t
        [
          "(parallel worker)";
          string_of_int w.wk_worker;
          string_of_int w.wk_items;
          fmt_s (w.wk_busy_s +. w.wk_idle_s);
          fmt_s w.wk_busy_s;
          "-";
          "-";
          Printf.sprintf "idle %.3f" w.wk_idle_s;
        ])
    r.r_workers;
  t

let to_json r =
  let phase p =
    Json.Obj
      [
        ("name", Json.String p.ph_name);
        ("domain", Json.Int p.ph_domain);
        ("count", Json.Int p.ph_count);
        ("wall_s", Json.Float p.ph_wall_s);
        ("self_s", Json.Float p.ph_self_s);
        ("minor_words", Json.Float p.ph_minor_words);
        ("major_words", Json.Float p.ph_major_words);
        ("minor_collections", Json.Int p.ph_minor_collections);
        ("major_collections", Json.Int p.ph_major_collections);
      ]
  in
  let worker w =
    Json.Obj
      [
        ("worker", Json.Int w.wk_worker);
        ("maps", Json.Int w.wk_maps);
        ("items", Json.Int w.wk_items);
        ("busy_s", Json.Float w.wk_busy_s);
        ("idle_s", Json.Float w.wk_idle_s);
        ("steal_attempts", Json.Int w.wk_steal_attempts);
      ]
  in
  Json.Obj
    [
      ("schema", Json.String "ftsched/profile/v1");
      ("wall_s", Json.Float r.r_wall_s);
      ("phases", Json.List (List.map phase r.r_phases));
      ("workers", Json.List (List.map worker r.r_workers));
    ]

let of_json j =
  let get_f k o = Option.value ~default:0. (Option.bind (Json.member k o) Json.to_float) in
  let get_i k o = Option.value ~default:0 (Option.bind (Json.member k o) Json.to_int) in
  let get_s k o = Option.value ~default:"" (Option.bind (Json.member k o) Json.to_str) in
  match Option.bind (Json.member "schema" j) Json.to_str with
  | Some "ftsched/profile/v1" ->
      let phases =
        Json.member "phases" j
        |> Option.fold ~none:[] ~some:Json.to_list
        |> List.map (fun o ->
               {
                 ph_name = get_s "name" o;
                 ph_domain = get_i "domain" o;
                 ph_count = get_i "count" o;
                 ph_wall_s = get_f "wall_s" o;
                 ph_self_s = get_f "self_s" o;
                 ph_minor_words = get_f "minor_words" o;
                 ph_major_words = get_f "major_words" o;
                 ph_minor_collections = get_i "minor_collections" o;
                 ph_major_collections = get_i "major_collections" o;
               })
      in
      let workers =
        Json.member "workers" j
        |> Option.fold ~none:[] ~some:Json.to_list
        |> List.map (fun o ->
               {
                 wk_worker = get_i "worker" o;
                 wk_maps = get_i "maps" o;
                 wk_items = get_i "items" o;
                 wk_busy_s = get_f "busy_s" o;
                 wk_idle_s = get_f "idle_s" o;
                 wk_steal_attempts = get_i "steal_attempts" o;
               })
      in
      Some { r_wall_s = get_f "wall_s" j; r_phases = phases; r_workers = workers }
  | _ -> None
