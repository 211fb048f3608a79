type proc = int

(* The clique's link [src * m + dst] is arithmetic; a routed platform
   stores [routes.(src * m + dst)].  Plain data, so platforms compare
   with [=] and marshal. *)
type links = Clique | Routed of { count : int; routes : int array array }

type t = {
  delays : float array array;
  mean_delay : float;
  max_delay : float;
  links : links;
}

let off_diagonal_stats delays =
  let m = Array.length delays in
  if m < 2 then (0., 0.)
  else begin
    let sum = ref 0. and maxd = ref 0. in
    for k = 0 to m - 1 do
      for h = 0 to m - 1 do
        if k <> h then begin
          sum := !sum +. delays.(k).(h);
          if delays.(k).(h) > !maxd then maxd := delays.(k).(h)
        end
      done
    done;
    (!sum /. float_of_int (m * (m - 1)), !maxd)
  end

let create ~delays =
  let m = Array.length delays in
  if m = 0 then invalid_arg "Platform.create: no processors";
  Array.iteri
    (fun k row ->
      if Array.length row <> m then invalid_arg "Platform.create: ragged matrix";
      Array.iteri
        (fun h d ->
          if Float.is_nan d || d < 0. then
            invalid_arg "Platform.create: invalid delay";
          if k = h && d <> 0. then
            invalid_arg "Platform.create: non-zero diagonal delay")
        row)
    delays;
  let delays = Array.map Array.copy delays in
  let mean_delay, max_delay = off_diagonal_stats delays in
  { delays; mean_delay; max_delay; links = Clique }

let routed ~delays ~link_count ~routes =
  let t = create ~delays in
  let m = Array.length delays in
  let route l =
    let r = Array.of_list routes.(l / m).(l mod m) in
    if Array.exists (fun i -> i < 0 || i >= link_count) r then
      invalid_arg "Platform.routed: bad link id";
    r
  in
  let routes = Array.init (m * m) route in
  { t with links = Routed { count = link_count; routes } }

let uniform ~m ~delay =
  if delay < 0. then invalid_arg "Platform.uniform: negative delay";
  let delays =
    Array.init m (fun k -> Array.init m (fun h -> if k = h then 0. else delay))
  in
  create ~delays

let proc_count t = Array.length t.delays

(* inlined so the booking kernel's per-leg [comm_time] stays unboxed *)
let[@inline] delay t k h =
  if k < 0 || h < 0 || k >= proc_count t || h >= proc_count t then
    invalid_arg "Platform.delay: bad processor id";
  t.delays.(k).(h)

let[@inline] comm_time t ~src ~dst ~volume = volume *. delay t src dst
let procs t = List.init (proc_count t) (fun i -> i)
let mean_delay t = t.mean_delay
let max_delay t = t.max_delay
let is_clique t = match t.links with Clique -> true | Routed _ -> false

let link_count t =
  match t.links with Clique -> proc_count t * proc_count t | Routed r -> r.count

let[@inline] route_length t src dst =
  match t.links with
  | Clique -> 1
  | Routed r -> Array.length r.routes.((src * proc_count t) + dst)

let[@inline] route_link t src dst i =
  match t.links with
  | Clique -> (src * proc_count t) + dst
  | Routed r -> r.routes.((src * proc_count t) + dst).(i)
