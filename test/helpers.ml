(* Shared builders for the test suites. *)

let check_float = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A fixed small diamond DAG:
     0 -> 1 (10), 0 -> 2 (20), 1 -> 3 (30), 2 -> 3 (40) *)
let diamond_dag () =
  Dag.make ~n:4 ~edges:[ (0, 1, 10.); (0, 2, 20.); (1, 3, 30.); (2, 3, 40.) ] ()

(* A chain 0 -> 1 -> 2 with unit volumes. *)
let chain3 () = Dag.make ~n:3 ~edges:[ (0, 1, 1.); (1, 2, 1.) ] ()

(* Homogeneous platform: m processors, every link delay 1. *)
let uniform_platform m = Platform.uniform ~m ~delay:1.

(* Costs where every task costs [c] on every processor. *)
let flat_costs ?(c = 10.) dag platform =
  Costs.create dag platform (fun _ _ -> c)

(* A random paper-style instance, small enough for fast tests. *)
let random_instance ?(seed = 1) ?(m = 6) ?(tasks = 30) ?(granularity = 1.0) () =
  let rng = Rng.create seed in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = tasks; tasks_max = tasks }
  in
  let params = Platform_gen.default ~m () in
  let costs = Platform_gen.instance rng ~granularity params dag in
  (dag, costs)

(* -- test-data draws ----------------------------------------------------
   Each consumes exactly one draw of the generator, so a seeded test
   (the serve fault harness's pinned report) draws the same data. *)

(* A fair coin: the low bit of one 64-bit draw. *)
let coin rng = Int64.logand (Rng.bits64 rng) 1L = 1L

(* A uniformly chosen element of a non-empty array. *)
let pick rng a =
  if Array.length a = 0 then invalid_arg "Helpers.pick: empty array";
  a.(Rng.int rng (Array.length a))

(* -- qcheck instances --------------------------------------------------- *)

let seed_gen = QCheck.Gen.int_range 0 1_000_000

(* [(seed, m, tasks)] with m in [4, 8] and tasks in [8, max_tasks]: a
   random paper-style instance, small enough for exhaustive checks, that
   [instance_of] builds. *)
let instance_gen ~max_tasks =
  QCheck.Gen.(
    map3
      (fun seed m tasks -> (seed, m, tasks))
      seed_gen (int_range 4 8) (int_range 8 max_tasks))

let arbitrary_instance ~max_tasks =
  QCheck.make (instance_gen ~max_tasks) ~print:(fun (seed, m, tasks) ->
      Printf.sprintf "seed=%d m=%d tasks=%d" seed m tasks)

let instance_of (seed, m, tasks) = random_instance ~seed ~m ~tasks ()

let schedulers =
  [
    ("CAFT", fun ~epsilon costs -> Caft.run ~epsilon costs);
    ("FTSA", fun ~epsilon costs -> Ftsa.run ~epsilon costs);
    ("FTBAR", fun ~epsilon costs -> Ftbar.run ~epsilon costs);
  ]

(* [sched] with the same replicas, costs and delays over the interconnect
   of [links], a platform on as many processors: the clique for a clique,
   the same routes for a routed one.  A platform owns its links, so this
   is how a test validates or replays one schedule over another
   network. *)
let reroute ~links sched =
  let costs = Schedule.costs sched in
  let p = Costs.platform costs in
  let m = Platform.proc_count p in
  let delays = Array.init m (fun k -> Array.init m (Platform.delay p k)) in
  let platform =
    if Platform.is_clique links then Platform.create ~delays
    else
      Platform.routed ~delays ~link_count:(Platform.link_count links)
        ~routes:
          (Array.init m (fun s ->
               Array.init m (fun d ->
                   List.init (Platform.route_length links s d)
                     (Platform.route_link links s d))))
  in
  Schedule.create ~algorithm:(Schedule.algorithm sched)
    ~epsilon:(Schedule.epsilon sched) ~model:(Schedule.model sched)
    ~costs:(Costs.create (Costs.dag costs) platform (Costs.exec costs))
    (Schedule.all_replicas sched)
