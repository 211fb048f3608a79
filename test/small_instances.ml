(* Small random scheduling instances shared by the verdict properties: a
   random DAG on [m] processors, scheduled by CAFT, FTSA or FTBAR under
   one communication model for a given [epsilon].  About a fifth of the
   instances are booked over a sparse interconnect (a ring, a star, a
   two-row torus or a hypercube) instead of the clique, with the same
   execution costs and the topology's routed delays.  A thinned instance
   keeps only the first supply of each replica per predecessor, so it
   mostly no longer resists its own [epsilon]: the verdicts then have a
   refutation to agree on. *)

type algo = Caft | Ftsa | Ftbar
type fabric = Clique | Ring | Star | Torus | Hypercube

type t = {
  seed : int;
  m : int;
  tasks : int;
  epsilon : int;  (** the schedule's replication degree, below [m] *)
  algo : algo;
  model : Netstate.model;
  fabric : fabric;
  thin : bool;
}

let algo_name = function Caft -> "CAFT" | Ftsa -> "FTSA" | Ftbar -> "FTBAR"

let fabric_name = function
  | Clique -> "clique"
  | Ring -> "ring"
  | Star -> "star"
  | Torus -> "torus"
  | Hypercube -> "hypercube"

let print i =
  Printf.sprintf "seed=%d m=%d tasks=%d eps=%d %s %s %s%s" i.seed i.m i.tasks
    i.epsilon (algo_name i.algo)
    (Netstate.model_to_string i.model)
    (fabric_name i.fabric)
    (if i.thin then " thinned" else "")

let rec log2 n = if n < 2 then 0 else 1 + log2 (n / 2)

(* The processor count of [fabric] near a drawn [m >= 3]: a 2 x k torus
   and a hypercube round [m] to their shape, with at least 4
   processors. *)
let fabric_procs fabric m =
  match fabric with
  | Clique | Ring | Star -> m
  | Torus -> 2 * max 2 (m / 2)
  | Hypercube -> 1 lsl max 2 (log2 m)

let topology i =
  match i.fabric with
  | Clique -> None
  | Ring -> Some (Topology.ring i.m)
  | Star -> Some (Topology.star i.m)
  | Torus -> Some (Topology.torus2d ~rows:2 ~cols:(i.m / 2) ())
  | Hypercube -> Some (Topology.hypercube (log2 i.m))

let models =
  [ Netstate.One_port; Netstate.Multiport 2; Netstate.Macro_dataflow ]

(* [gen ~m ~tasks ~epsilon] draws [m], [tasks] and [epsilon] from the
   given generators; [m] is fitted to the fabric and [epsilon] is cut to
   [m - 1]. *)
let gen ~m ~tasks ~epsilon =
  QCheck.Gen.(
    map
      (fun ((seed, m, tasks), (epsilon, algo, model), (fabric, thin)) ->
        let m = fabric_procs fabric m in
        {
          seed;
          m;
          tasks;
          epsilon = min epsilon (m - 1);
          algo;
          model;
          fabric;
          thin;
        })
      (triple
         (triple (int_range 0 1_000_000) m tasks)
         (triple epsilon
            (oneofl [ Caft; Ftsa; Ftbar ])
            (oneofl models))
         (pair
            (frequencyl
               [
                 (16, Clique); (1, Ring); (1, Star); (1, Torus); (1, Hypercube);
               ])
            (frequencyl [ (2, false); (1, true) ]))))

let supply_pred = function
  | Schedule.Local l -> l.l_pred
  | Schedule.Message msg -> msg.Netstate.m_source.Netstate.s_task

(* the first supply of each predecessor, in the replica's order *)
let thin_inputs (r : Schedule.replica) =
  let seen = Hashtbl.create 8 in
  let keep s =
    let p = supply_pred s in
    if Hashtbl.mem seen p then false
    else begin
      Hashtbl.add seen p ();
      true
    end
  in
  { r with Schedule.r_inputs = List.filter keep r.Schedule.r_inputs }

let schedule i =
  let dag, costs =
    Helpers.random_instance ~seed:i.seed ~m:i.m ~tasks:i.tasks ()
  in
  let costs =
    match topology i with
    | None -> costs
    | Some topo ->
        Costs.create dag (Topology.platform topo) (Costs.exec costs)
  in
  let model = i.model and seed = i.seed and epsilon = i.epsilon in
  let sched =
    match i.algo with
    | Caft -> Caft.run ~model ~seed ~epsilon costs
    | Ftsa -> Ftsa.run ~model ~seed ~epsilon costs
    | Ftbar -> Ftbar.run ~model ~seed ~epsilon costs
  in
  if not i.thin then sched
  else
    Schedule.create ~algorithm:(Schedule.algorithm sched) ~epsilon ~model
      ~costs
      (List.map thin_inputs (Schedule.all_replicas sched))
