(* In-memory spans recorded by the benchmark around its calls into the
   program's layers.  Off unless the run is traced; written out once,
   when the run ends.

   A span's self time is its duration minus that of its direct children.
   Spans opened on a worker domain of a parallel map have no parent on
   that domain and count as top-level layer time.  The root of every
   traced iteration is named [root]; coverage is the share of the roots'
   wall that layer self times account for. *)

type t = {
  name : string;
  domain : int;
  t0 : float;
  t1 : float;
  id : int;
  parent : int;  (** 0 when none *)
}

let root = "iteration"
let on = Atomic.make false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let ids = Atomic.make 0
let stack = Domain.DLS.new_key (fun () -> ref [])

let start () = Atomic.set on true
let stop () = Atomic.set on false
let spans () = Mutex.protect lock (fun () -> !recorded)

let within name f =
  if not (Atomic.get on) then f ()
  else begin
    let st = Domain.DLS.get stack in
    let parent = match !st with p :: _ -> p | [] -> 0 in
    let id = 1 + Atomic.fetch_and_add ids 1 in
    st := id :: !st;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      st := (match !st with _ :: rest -> rest | [] -> []);
      let s = { name; domain = (Domain.self () :> int); t0; t1; id; parent } in
      Mutex.protect lock (fun () -> recorded := s :: !recorded)
    in
    Fun.protect ~finally:close f
  end

let duration s = s.t1 -. s.t0

(* name -> (total duration, total self time, count) *)
let totals spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  let tot = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      let d, sf, n =
        Option.value ~default:(0., 0., 0) (Hashtbl.find_opt tot s.name)
      in
      Hashtbl.replace tot s.name (d +. duration s, sf +. self, n + 1))
    spans;
  tot

let total name spans =
  match Hashtbl.find_opt (totals spans) name with
  | Some (d, _, _) -> d
  | None -> 0.

(* Share of the traced wall covered by layer self time.  [extra_self] and
   [extra_wall] add the worker domains of parallel maps: their idle time
   is the parallel layer's own, their loop time widens the wall. *)
let coverage ?(extra_self = 0.) ?(extra_wall = 0.) spans =
  let tot = totals spans in
  let self =
    Hashtbl.fold (fun n (_, s, _) acc -> if n = root then acc else acc +. s) tot 0.
  in
  let wall = match Hashtbl.find_opt tot root with Some (d, _, _) -> d | None -> 0. in
  (self +. extra_self) /. (wall +. extra_wall)

(* Chrome trace-event format, readable by Perfetto. *)
let write path spans =
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity spans in
  let event s =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("ts", Json.Float ((s.t0 -. base) *. 1e6));
        ("dur", Json.Float (duration s *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.domain);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj [ ("traceEvents", Json.List (List.rev_map event spans)) ])))
