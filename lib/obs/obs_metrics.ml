(* Per-domain sharded registry.  Metric handles are stable slot ids; every
   domain owns a DLS-local shard holding plain (non-atomic) cells indexed
   by those ids, so a hot-path increment touches only memory written by
   its own domain — no shared cache line, no CAS, no mutex.  The global
   side (name -> slot table, the list of live shards, the fold-in base
   for shards of terminated domains) is touched only at registration,
   domain birth/death and read time, all under one mutex.

   Memory model: a shard cell is written by exactly one domain.  Readers
   ([dump]/[find]/[to_json]) aggregate across shards without
   synchronizing with the owners, so a dump raced with live recording
   may observe slightly stale cells (plain loads of asynchronously
   written words — never torn, ints and floats are word-sized).  Every
   actual read site runs after [Parallel.map] joined its workers, and
   [Domain.join] publishes the workers' writes, so reports are exact.
   Shards of terminated domains are folded into [retired] by a
   [Domain.at_exit] hook, which runs before [Domain.join] returns —
   shard count is bounded by the number of *live* domains, not by how
   many a campaign ever spawned.

   The [enabled] flag is the only cost on the disabled path: one atomic
   load and a branch. *)

type counter = { c_id : int }
type gauge = { g_id : int }
type histogram = { h_id : int; h_spec : float array }

type kind_tag = T_counter | T_gauge | T_histogram

type meta = {
  m_help : string;
  m_kind : kind_tag;
  m_id : int;  (* slot within its kind *)
  m_buckets : float array;  (* histogram bucket upper bounds, else [||] *)
}

(* one histogram's domain-local buffer: bucket counts + moment accumulator *)
type hcell = { hc_counts : int array; mutable hc_acc : Stats.Acc.t }

type shard = {
  sh_seq : int;  (* creation order: stable aggregation order *)
  mutable sh_counters : int array;
  mutable sh_gauges : float array;  (* [add] accumulators *)
  mutable sh_hists : hcell option array;
}

let registry : (string, meta) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()
let n_counters = ref 0
let n_gauges = ref 0
let n_hists = ref 0

(* last [set] per gauge slot, stamped so the latest write wins across
   domains; [set] is orders of magnitude rarer than [add] (it records
   end-of-campaign summaries), so it can afford the registry mutex. *)
let gauge_sets : (int * float) option array ref = ref [||]
let set_stamp = ref 0

let mk_shard seq =
  {
    sh_seq = seq;
    sh_counters = [||];
    sh_gauges = [||];
    sh_hists = [||];
  }

(* fold-in base for shards whose domain has terminated *)
let retired = mk_shard (-1)
let live_shards : shard list ref = ref []
let shard_seq = ref 0

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "FTSCHED_METRICS" with
    | Some ("" | "0" | "false" | "no") | None -> false
    | Some _ -> true)

let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

(* -- shard lifecycle ---------------------------------------------------- *)

let grown_int a n =
  let b = Array.make (max 8 (max n (2 * Array.length a))) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grown_float a n =
  let b = Array.make (max 8 (max n (2 * Array.length a))) 0. in
  Array.blit a 0 b 0 (Array.length a);
  b

let grown_hist a n =
  let b = Array.make (max 8 (max n (2 * Array.length a))) None in
  Array.blit a 0 b 0 (Array.length a);
  b

let hcell_of_counts counts acc =
  { hc_counts = Array.copy counts; hc_acc = acc }

(* Fold every cell of [s] into [retired]; caller holds the mutex. *)
let fold_into_retired s =
  let nc = Array.length s.sh_counters in
  if Array.length retired.sh_counters < nc then
    retired.sh_counters <- grown_int retired.sh_counters nc;
  for i = 0 to nc - 1 do
    retired.sh_counters.(i) <- retired.sh_counters.(i) + s.sh_counters.(i)
  done;
  let ng = Array.length s.sh_gauges in
  if Array.length retired.sh_gauges < ng then
    retired.sh_gauges <- grown_float retired.sh_gauges ng;
  for i = 0 to ng - 1 do
    retired.sh_gauges.(i) <- retired.sh_gauges.(i) +. s.sh_gauges.(i)
  done;
  let nh = Array.length s.sh_hists in
  if Array.length retired.sh_hists < nh then
    retired.sh_hists <- grown_hist retired.sh_hists nh;
  for i = 0 to nh - 1 do
    match s.sh_hists.(i) with
    | None -> ()
    | Some hc -> (
        match retired.sh_hists.(i) with
        | None ->
            retired.sh_hists.(i) <- Some (hcell_of_counts hc.hc_counts hc.hc_acc)
        | Some base ->
            Array.iteri
              (fun j n -> base.hc_counts.(j) <- base.hc_counts.(j) + n)
              hc.hc_counts;
            base.hc_acc <- Stats.Acc.merge base.hc_acc hc.hc_acc)
  done

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        with_registry (fun () ->
            incr shard_seq;
            let s = mk_shard !shard_seq in
            live_shards := s :: !live_shards;
            s)
      in
      (* runs on the owning domain before [Domain.join] unblocks, so a
         post-join dump always sees the folded totals *)
      Domain.at_exit (fun () ->
          with_registry (fun () ->
              fold_into_retired s;
              live_shards := List.filter (fun s' -> s' != s) !live_shards));
      s)

let my_shard () = Domain.DLS.get shard_key

let shard_count () = with_registry (fun () -> List.length !live_shards)

(* -- registration ------------------------------------------------------ *)

let register ~help ~kind ~buckets name =
  with_registry (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m when m.m_kind = kind -> m
      | Some _ ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S already registered with another kind" name)
      | None ->
          let id =
            match kind with
            | T_counter ->
                incr n_counters;
                !n_counters - 1
            | T_gauge ->
                incr n_gauges;
                if !n_gauges > Array.length !gauge_sets then
                  gauge_sets :=
                    (let a =
                       Array.make (max 8 (2 * Array.length !gauge_sets)) None
                     in
                     Array.blit !gauge_sets 0 a 0 (Array.length !gauge_sets);
                     a);
                !n_gauges - 1
            | T_histogram ->
                incr n_hists;
                !n_hists - 1
          in
          let m = { m_help = help; m_kind = kind; m_id = id; m_buckets = buckets } in
          Hashtbl.replace registry name m;
          m)

let counter ?(help = "") name =
  let m = register ~help ~kind:T_counter ~buckets:[||] name in
  { c_id = m.m_id }

let gauge ?(help = "") name =
  let m = register ~help ~kind:T_gauge ~buckets:[||] name in
  { g_id = m.m_id }

let default_buckets = [| 0.001; 0.01; 0.1; 1.; 10.; 100.; 1000.; 10000. |]

let histogram ?(buckets = default_buckets) ?(help = "") name =
  let n = Array.length buckets in
  for i = 1 to n - 1 do
    if buckets.(i) <= buckets.(i - 1) then
      invalid_arg "Obs.Metrics.histogram: buckets must be strictly increasing"
  done;
  let m = register ~help ~kind:T_histogram ~buckets:(Array.copy buckets) name in
  (* idempotent re-registration keeps the original bucket spec *)
  { h_id = m.m_id; h_spec = m.m_buckets }

(* -- recording (the hot path: one atomic load, then domain-local) ------- *)

let incr ?(by = 1) c =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    if c.c_id >= Array.length s.sh_counters then
      s.sh_counters <- grown_int s.sh_counters (c.c_id + 1);
    s.sh_counters.(c.c_id) <- s.sh_counters.(c.c_id) + by
  end

let add g x =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    if g.g_id >= Array.length s.sh_gauges then
      s.sh_gauges <- grown_float s.sh_gauges (g.g_id + 1);
    s.sh_gauges.(g.g_id) <- s.sh_gauges.(g.g_id) +. x
  end

let set g x =
  if Atomic.get enabled_flag then
    with_registry (fun () ->
        Stdlib.incr set_stamp;
        !gauge_sets.(g.g_id) <- Some (!set_stamp, x))

let bucket_index buckets x =
  (* first bucket whose upper bound admits x; length buckets = overflow *)
  let n = Array.length buckets in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if x <= buckets.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe h x =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    if h.h_id >= Array.length s.sh_hists then
      s.sh_hists <- grown_hist s.sh_hists (h.h_id + 1);
    let hc =
      match s.sh_hists.(h.h_id) with
      | Some hc -> hc
      | None ->
          let hc =
            {
              hc_counts = Array.make (Array.length h.h_spec + 1) 0;
              hc_acc = Stats.Acc.create ();
            }
          in
          s.sh_hists.(h.h_id) <- Some hc;
          hc
    in
    let i = bucket_index h.h_spec x in
    hc.hc_counts.(i) <- hc.hc_counts.(i) + 1;
    Stats.Acc.add hc.hc_acc x
  end

(* -- reading ----------------------------------------------------------- *)

type histogram_summary = {
  hs_count : int;
  hs_mean : float;
  hs_stddev : float;
  hs_min : float;
  hs_max : float;
  hs_buckets : (float * int) list;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

(* Aggregate one metric over [retired] then the live shards in creation
   order; caller holds the mutex.  Integer sums are order-independent;
   the fixed order keeps float merges reproducible for a given shard
   population. *)
let shards_in_order () =
  retired :: List.sort (fun a b -> compare a.sh_seq b.sh_seq) !live_shards

let value_of meta =
  match meta.m_kind with
  | T_counter ->
      let total = ref 0 in
      List.iter
        (fun s ->
          if meta.m_id < Array.length s.sh_counters then
            total := !total + s.sh_counters.(meta.m_id))
        (shards_in_order ());
      Counter !total
  | T_gauge ->
      let base =
        match !gauge_sets.(meta.m_id) with None -> 0. | Some (_, x) -> x
      in
      let total = ref base in
      List.iter
        (fun s ->
          if meta.m_id < Array.length s.sh_gauges then
            total := !total +. s.sh_gauges.(meta.m_id))
        (shards_in_order ());
      Gauge !total
  | T_histogram ->
      let n = Array.length meta.m_buckets in
      let counts = Array.make (n + 1) 0 in
      let acc = ref (Stats.Acc.create ()) in
      List.iter
        (fun s ->
          if meta.m_id < Array.length s.sh_hists then
            match s.sh_hists.(meta.m_id) with
            | None -> ()
            | Some hc ->
                Array.iteri
                  (fun i c -> counts.(i) <- counts.(i) + c)
                  hc.hc_counts;
                acc := Stats.Acc.merge !acc hc.hc_acc)
        (shards_in_order ());
      Histogram
        {
          hs_count = Stats.Acc.count !acc;
          hs_mean = Stats.Acc.mean !acc;
          hs_stddev = Stats.Acc.stddev !acc;
          hs_min = Stats.Acc.min !acc;
          hs_max = Stats.Acc.max !acc;
          hs_buckets =
            List.init (n + 1) (fun i ->
                ((if i = n then infinity else meta.m_buckets.(i)), counts.(i)));
        }

let dump () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun name meta acc -> (name, meta.m_help, value_of meta) :: acc)
        registry [])
  (* deterministic output: Hashtbl order must never leak into reports *)
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let find name =
  with_registry (fun () ->
      Option.map (fun meta -> value_of meta) (Hashtbl.find_opt registry name))

let reset () =
  with_registry (fun () ->
      let zero s =
        Array.fill s.sh_counters 0 (Array.length s.sh_counters) 0;
        Array.fill s.sh_gauges 0 (Array.length s.sh_gauges) 0.;
        Array.iter
          (function
            | None -> ()
            | Some hc ->
                Array.fill hc.hc_counts 0 (Array.length hc.hc_counts) 0;
                hc.hc_acc <- Stats.Acc.create ())
          s.sh_hists
      in
      zero retired;
      List.iter zero !live_shards;
      Array.fill !gauge_sets 0 (Array.length !gauge_sets) None)

(* -- rendering --------------------------------------------------------- *)

let float_str x = if Float.is_nan x then "-" else Printf.sprintf "%.3f" x

let to_table () =
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left; Text_table.Left; Text_table.Left ]
      [ "metric"; "kind"; "value" ]
  in
  List.iter
    (fun (name, _, v) ->
      let kind, value =
        match v with
        | Counter n -> ("counter", string_of_int n)
        | Gauge x -> ("gauge", float_str x)
        | Histogram s ->
            ( "histogram",
              if s.hs_count = 0 then "n=0"
              else
                Printf.sprintf "n=%d mean=%s min=%s max=%s" s.hs_count
                  (float_str s.hs_mean) (float_str s.hs_min)
                  (float_str s.hs_max) )
      in
      Text_table.add_row t [ name; kind; value ])
    (dump ());
  t

let to_json () =
  let metric (name, help, v) =
    let base = [ ("name", Json.String name) ] in
    let help = if help = "" then [] else [ ("help", Json.String help) ] in
    let rest =
      match v with
      | Counter n -> [ ("kind", Json.String "counter"); ("value", Json.Int n) ]
      | Gauge x -> [ ("kind", Json.String "gauge"); ("value", Json.Float x) ]
      | Histogram s ->
          [
            ("kind", Json.String "histogram");
            ("count", Json.Int s.hs_count);
            ("mean", Json.Float s.hs_mean);
            ("stddev", Json.Float s.hs_stddev);
            ("min", Json.Float s.hs_min);
            ("max", Json.Float s.hs_max);
            ( "buckets",
              Json.List
                (List.map
                   (fun (le, n) ->
                     Json.Obj [ ("le", Json.Float le); ("count", Json.Int n) ])
                   s.hs_buckets) );
          ]
    in
    Json.Obj (base @ help @ rest)
  in
  Json.Obj
    [
      ("schema", Json.String "ftsched/metrics/v1");
      ("metrics", Json.List (List.map metric (dump ())));
    ]
