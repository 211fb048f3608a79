type algo = Caft | Ftsa | Ftbar | Heft

let algos = [ ("caft", Caft); ("ftsa", Ftsa); ("ftbar", Ftbar); ("heft", Heft) ]

let models =
  [
    ("one-port", Netstate.One_port);
    ("macro", Netstate.Macro_dataflow);
    ("multiport-2", Netstate.Multiport 2);
    ("multiport-4", Netstate.Multiport 4);
  ]

(* Reverse lookup without allocation: the daemon names every request's
   algorithm and model in its cache key. *)
let rec name_of v = function
  | (name, v') :: rest -> if v' = v then name else name_of v rest
  | [] -> invalid_arg "Request: value outside the name table"

let algo_name a = name_of a algos
let model_name m = name_of m models

type t = {
  seed : int;
  family : string;
  tasks : int;
  m : int;
  epsilon : int;
  granularity : float;
  algo : algo;
  model : Netstate.model;
}

let default =
  {
    seed = 1;
    family = "random";
    tasks = 40;
    m = 10;
    epsilon = 1;
    granularity = 1.0;
    algo = Caft;
    model = Netstate.One_port;
  }

let instance r =
  Instance.make ~seed:r.seed ~family:r.family ~tasks:r.tasks ~m:r.m
    ~granularity:r.granularity ()

let schedule r costs =
  let model = r.model and seed = r.seed and epsilon = r.epsilon in
  match r.algo with
  | Caft -> Caft.run ~model ~seed ~epsilon costs
  | Ftsa -> Ftsa.run ~model ~seed ~epsilon costs
  | Ftbar -> Ftbar.run ~model ~seed ~epsilon costs
  | Heft -> Heft.run ~model ~seed costs
