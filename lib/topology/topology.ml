type t = {
  m : int;
  link_ids : (int * int, int) Hashtbl.t;  (* directed (src, dst) -> phys id *)
  link_count : int;
  delays : float array;  (* per phys id *)
  paths : int list array array;  (* paths.(src).(dst): processor path *)
  dist : float array array;  (* end-to-end delay *)
  diameter_hops : int;
}

(* Deterministic Dijkstra from [src]: minimise (total delay, hops, path
   lexicographically) by always settling the smallest-keyed node. *)
let shortest_paths m adj src =
  let dist = Array.make m infinity in
  let hops = Array.make m max_int in
  let prev = Array.make m (-1) in
  dist.(src) <- 0.;
  hops.(src) <- 0;
  let settled = Array.make m false in
  let better (d1, h1, p1) (d2, h2, p2) =
    d1 < d2 || (d1 = d2 && (h1 < h2 || (h1 = h2 && p1 < p2)))
  in
  for _ = 1 to m do
    (* pick the unsettled node with the smallest key *)
    let u = ref (-1) in
    for v = 0 to m - 1 do
      if
        (not settled.(v))
        && Float.is_finite dist.(v)
        && (!u = -1 || better (dist.(v), hops.(v), v) (dist.(!u), hops.(!u), !u))
      then u := v
    done;
    if !u >= 0 then begin
      settled.(!u) <- true;
      List.iter
        (fun (v, d) ->
          let cand = (dist.(!u) +. d, hops.(!u) + 1, !u) in
          if
            (not settled.(v))
            && better cand (dist.(v), hops.(v), prev.(v))
          then begin
            let nd, nh, np = cand in
            dist.(v) <- nd;
            hops.(v) <- nh;
            prev.(v) <- np
          end)
        adj.(!u)
    end
  done;
  (dist, hops, prev)

let custom ~m ~links =
  if m < 1 then invalid_arg "Topology.custom: m < 1";
  let link_ids = Hashtbl.create 64 in
  let delays = ref [] in
  let next_id = ref 0 in
  let add_directed src dst delay =
    if Hashtbl.mem link_ids (src, dst) then
      invalid_arg "Topology.custom: duplicate cable";
    Hashtbl.add link_ids (src, dst) !next_id;
    delays := delay :: !delays;
    incr next_id
  in
  List.iter
    (fun (a, b, delay) ->
      if a < 0 || a >= m || b < 0 || b >= m then
        invalid_arg "Topology.custom: bad endpoint";
      if a = b then invalid_arg "Topology.custom: self cable";
      if delay <= 0. || Float.is_nan delay then
        invalid_arg "Topology.custom: non-positive delay";
      add_directed a b delay;
      add_directed b a delay)
    links;
  let delays = Array.of_list (List.rev !delays) in
  (* adjacency for routing *)
  let adj = Array.make m [] in
  Hashtbl.iter
    (fun (src, dst) id -> adj.(src) <- (dst, delays.(id)) :: adj.(src))
    link_ids;
  (* deterministic neighbour order *)
  Array.iteri (fun i l -> adj.(i) <- List.sort compare l) adj;
  let paths = Array.init m (fun _ -> Array.make m []) in
  let dist = Array.make_matrix m m 0. in
  let diameter = ref 0 in
  for src = 0 to m - 1 do
    let d, hops, prev = shortest_paths m adj src in
    for dst = 0 to m - 1 do
      if not (Float.is_finite d.(dst)) then
        invalid_arg "Topology.custom: disconnected topology";
      dist.(src).(dst) <- d.(dst);
      if hops.(dst) > !diameter then diameter := hops.(dst);
      let rec walk v acc = if v = src then src :: acc else walk prev.(v) (v :: acc) in
      paths.(src).(dst) <- walk dst []
    done
  done;
  {
    m;
    link_ids;
    link_count = Array.length delays;
    delays;
    paths;
    dist;
    diameter_hops = !diameter;
  }

let clique m =
  if m < 1 then invalid_arg "Topology.clique";
  let links = ref [] in
  for a = 0 to m - 1 do
    for b = a + 1 to m - 1 do
      links := (a, b, 1.) :: !links
    done
  done;
  custom ~m ~links:!links

let ring m =
  if m < 2 then invalid_arg "Topology.ring";
  if m = 2 then custom ~m ~links:[ (0, 1, 1.) ]
  else custom ~m ~links:(List.init m (fun i -> (i, (i + 1) mod m, 1.)))

let star m =
  if m < 2 then invalid_arg "Topology.star";
  custom ~m ~links:(List.init (m - 1) (fun i -> (0, i + 1, 1.)))

let mesh_links ?(wrap = false) ~rows ~cols ~delay () =
  if rows < 1 || cols < 1 then invalid_arg "Topology.mesh2d";
  let id r c = (r * cols) + c in
  let links = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then links := (id r c, id r (c + 1), delay) :: !links
      else if wrap && cols > 2 then links := (id r c, id r 0, delay) :: !links;
      if r + 1 < rows then links := (id r c, id (r + 1) c, delay) :: !links
      else if wrap && rows > 2 then links := (id r c, id 0 c, delay) :: !links
    done
  done;
  !links

let mesh2d ?(delay = 1.) ~rows ~cols () =
  custom ~m:(rows * cols) ~links:(mesh_links ~rows ~cols ~delay ())

let torus2d ?(delay = 1.) ~rows ~cols () =
  custom ~m:(rows * cols) ~links:(mesh_links ~wrap:true ~rows ~cols ~delay ())

let hypercube d =
  if d < 1 then invalid_arg "Topology.hypercube";
  let m = 1 lsl d in
  let links = ref [] in
  for v = 0 to m - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then links := (v, w, 1.) :: !links
    done
  done;
  custom ~m ~links:!links

let proc_count t = t.m
let link_count t = t.link_count
let delay_between t src dst = t.dist.(src).(dst)
let route t src dst = t.paths.(src).(dst)
let diameter_hops t = t.diameter_hops

(* The routed platform: end-to-end delays along the routes, and each
   route as the physical links between consecutive processors. *)
let platform t =
  let rec links = function
    | a :: (b :: _ as rest) -> Hashtbl.find t.link_ids (a, b) :: links rest
    | [ _ ] | [] -> []
  in
  Platform.routed ~delays:t.dist ~link_count:t.link_count
    ~routes:(Array.map (Array.map links) t.paths)
