(* Differential tests for the trial-booking fast path (the probe kernel +
   candidate pruning):

   - on >= 100 random scenarios (varying m, model, fabric),
     interleave committed bookings and probes and assert that
     [Netstate.probe] leaves the state observationally unchanged — same
     [proc_ready], [send_free], [recv_free] and [link_ready] on every
     processor pair — and returns the same execution window the
     committed booking computes on a twin: a fresh state that replays
     the same committed bookings, so it owes nothing to the probe's undo
     log;
   - a QCheck suite drawing random platforms, models, fabrics,
     [colocate_exclusive], prior bookings and one-to-one head selections,
     checking every processor against [book_replica] on a twin;
   - a tie-heavy QCheck suite comparing whole bookings against the
     list-based booking the kernel replaced ([reference_booking]), which
     pins the send-order and arrival-order tie rules;
   - golden fingerprints: the schedules produced by CAFT, CAFT-full,
     FTSA, FTBAR, the batch variant and HEFT on fixed seeds are
     byte-identical to the pre-optimization code (digests recorded from
     the seed commit);
   - the pruning metric actually fires on a default-sized instance. *)

let src ~task ~replica ~proc ~finish ~volume =
  {
    Netstate.s_task = task;
    s_replica = replica;
    s_proc = proc;
    s_finish = finish;
    s_volume = volume;
  }

(* Every observable of the network state: r(P), SF(P), RF(P) per
   processor and R(l) per ordered pair. *)
let observe net ~m =
  ( Array.init m (fun p -> Netstate.proc_ready net p),
    Array.init m (fun p -> Netstate.send_free net p),
    Array.init m (fun p -> Netstate.recv_free net p),
    Array.init m (fun s ->
        Array.init m (fun d ->
            if s = d then 0. else Netstate.link_ready net ~src:s ~dst:d)) )

let check_obs msg expected actual =
  if expected <> actual then Alcotest.failf "%s: observable state differs" msg

(* k distinct elements of [lst], via a partial Fisher-Yates shuffle. *)
let pick rng k lst =
  let arr = Array.of_list lst in
  let n = Array.length arr in
  let k = min k n in
  for i = 0 to k - 1 do
    let j = i + Rng.int rng (n - i) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)

let scenario seed =
  let rng = Rng.create seed in
  let model =
    match Rng.int rng 4 with
    | 0 -> Netstate.Macro_dataflow
    | 1 -> Netstate.One_port
    | 2 -> Netstate.Multiport 2
    | _ -> Netstate.Multiport 3
  in
  let platform =
    match Rng.int rng 3 with
    | 0 -> Helpers.uniform_platform (2 + Rng.int rng 9)
    | 1 -> Topology.platform (Topology.ring (3 + Rng.int rng 6))
    | _ -> Topology.platform (Topology.star (3 + Rng.int rng 6))
  in
  let m = Platform.proc_count platform in
  let ledger = Oracle_booking.ledger ~model platform in
  let net = ledger.Oracle_booking.net in
  (* Pool of data sources produced by committed bookings. *)
  let pool = ref [] in
  let fresh_task = ref 0 in
  let add_source proc finish =
    let task = !fresh_task in
    incr fresh_task;
    pool :=
      src ~task ~replica:0 ~proc ~finish ~volume:(Rng.float_in rng 1. 20.)
      :: !pool
  in
  for _ = 1 to 3 do
    let p = Rng.int rng m in
    let b =
      Oracle_booking.commit ledger ~proc:p ~exec:(Rng.float_in rng 1. 10.)
        ~inputs:[]
    in
    add_source p b.Netstate.b_finish
  done;
  let make_inputs () =
    let npred = 1 + Rng.int rng 3 in
    List.map
      (fun s ->
        let sources =
          if Rng.int rng 2 = 0 then [ s ]
          else
            (* a second replica of the same predecessor, elsewhere *)
            [
              s;
              {
                s with
                Netstate.s_replica = 1;
                s_proc = Rng.int rng m;
                s_finish = Rng.float_in rng 0. 30.;
              };
            ]
        in
        (s.Netstate.s_task, sources))
      (pick rng npred !pool)
  in
  for step = 1 to 12 do
    let proc = Rng.int rng m in
    let exec = Rng.float_in rng 1. 10. in
    let inputs = make_inputs () in
    let colocate_exclusive = Rng.int rng 2 = 0 in
    if Rng.int rng 2 = 0 then begin
      (* commit: the booking mutates the state for later steps *)
      let b =
        Oracle_booking.commit ~colocate_exclusive ledger ~proc ~exec ~inputs
      in
      add_source proc b.Netstate.b_finish
    end
    else begin
      (* differential trial: a commit on the twin is the reference *)
      let obs0 = observe net ~m in
      let twin = Oracle_booking.twin ledger in
      check_obs
        (Printf.sprintf "seed %d step %d (twin)" seed step)
        obs0 (observe twin ~m);
      let b_ref =
        Oracle_booking.book_replica ~colocate_exclusive twin ~proc ~exec
          ~inputs
      in
      let src = Netstate.create_sources () in
      Oracle_booking.load_inputs src inputs;
      let window =
        Netstate.probe net src ~colocate_exclusive ~proc ~exec
      in
      check_obs
        (Printf.sprintf "seed %d step %d (probe)" seed step)
        obs0 (observe net ~m);
      if window <> (b_ref.Netstate.b_start, b_ref.Netstate.b_finish) then
        Alcotest.failf "seed %d step %d: probe differs from the twin" seed
          step
    end
  done

let test_trial_vs_twin () =
  for seed = 1 to 120 do
    scenario seed
  done

(* -- QCheck: probe == book_replica on a twin --------------------------- *)

(* A random platform: heterogeneous clique delays, or a routed topology
   (regular or random custom links). *)
let random_platform rng =
  let m = 2 + Rng.int rng 8 in
  match Rng.int rng 5 with
  | 0 | 1 ->
      let delays =
        Array.init m (fun k ->
            Array.init m (fun h -> if k = h then 0. else Rng.float_in rng 0.2 3.))
      in
      Platform.create ~delays
  | 2 -> Topology.platform (Topology.ring (max 3 m))
  | 3 -> Topology.platform (Topology.star (max 3 m))
  | _ ->
      (* a random spanning chain plus chords, so routes share links *)
      let chords =
        List.filter_map
          (fun _ ->
            let a = Rng.int rng m and b = Rng.int rng m in
            if abs (a - b) < 2 then None
            else Some (min a b, max a b, Rng.float_in rng 0.5 2.))
          (List.init m Fun.id)
      in
      let links =
        List.init (m - 1) (fun i -> (i, i + 1, Rng.float_in rng 0.5 2.))
        @ List.sort_uniq (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d)) chords
      in
      Topology.platform (Topology.custom ~m ~links)

let prop_probe_matches_commit seed =
  let rng = Rng.create seed in
  let platform = random_platform rng in
  let m = Platform.proc_count platform in
  let model =
    match Rng.int rng 3 with
    | 0 -> Netstate.Macro_dataflow
    | 1 -> Netstate.One_port
    | _ -> Netstate.Multiport (1 + Rng.int rng 3)
  in
  let ledger = Oracle_booking.ledger ~model platform in
  let net = ledger.Oracle_booking.net in
  let next_task = ref 0 in
  (* [replicas] copies of a fresh predecessor task on random processors *)
  let fresh_pred replicas =
    let task = !next_task in
    incr next_task;
    let volume = Rng.float_in rng 0. 20. in
    List.init replicas (fun r ->
        src ~task ~replica:r ~proc:(Rng.int rng m)
          ~finish:(Rng.float_in rng 0. 40.) ~volume)
  in
  let random_inputs () =
    List.init (1 + Rng.int rng 4) (fun _ ->
        match fresh_pred (1 + Rng.int rng 3) with
        | s :: _ as sources -> (s.Netstate.s_task, sources)
        | [] -> assert false)
  in
  (* prior bookings leave processors, ports and links busy *)
  for _ = 1 to Rng.int rng 12 do
    let proc = Rng.int rng m and exec = Rng.float_in rng 1. 10. in
    if Rng.int rng 3 = 0 then
      ignore (Oracle_booking.commit ledger ~proc ~exec ~inputs:[])
    else
      ignore
        (Oracle_booking.commit
           ~colocate_exclusive:(Rng.int rng 2 = 0)
           ledger ~proc ~exec ~inputs:(random_inputs ()))
  done;
  let inputs = random_inputs () in
  let colocate_exclusive = Rng.int rng 2 = 0 in
  (* one-to-one heads on some slots, as CAFT selects them *)
  let heads =
    List.map
      (fun (_, sources) ->
        if Rng.int rng 2 = 0 then None
        else Some (Rng.int rng (List.length sources)))
      inputs
  in
  let src_set = Netstate.create_sources () in
  Oracle_booking.load_inputs src_set inputs;
  List.iteri
    (fun slot -> function
      | None -> Netstate.select_full src_set ~slot
      | Some replica -> Netstate.select_head src_set ~slot ~replica)
    heads;
  let selected =
    List.map2
      (fun (pred, sources) head ->
        match head with
        | None -> (pred, sources)
        | Some r -> (pred, [ List.nth sources r ]))
      inputs heads
  in
  for proc = 0 to m - 1 do
    let exec = Rng.float_in rng 1. 10. in
    let obs0 = observe net ~m in
    let window = Netstate.probe net src_set ~colocate_exclusive ~proc ~exec in
    check_obs (Printf.sprintf "seed %d proc %d (probe)" seed proc) obs0
      (observe net ~m);
    let b =
      Oracle_booking.book_replica ~colocate_exclusive
        (Oracle_booking.twin ledger) ~proc ~exec ~inputs:selected
    in
    if window <> (b.Netstate.b_start, b.Netstate.b_finish) then
      QCheck.Test.fail_reportf "seed %d proc %d: probe (%g, %g) <> commit (%g, %g)"
        seed proc (fst window) (snd window) b.Netstate.b_start
        b.Netstate.b_finish
  done;
  true

let qcheck_probe =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20080913 |])
    (QCheck.Test.make ~count:300
       ~name:"probe == book_replica on a snapshot (qcheck)"
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 1_000_000))
       prop_probe_matches_commit)

(* -- QCheck: the kernel against the list-based reference booking ------ *)

(* The list-based booking the kernel replaced (per call: split, concat,
   stable sort by source, book legs, stable sort by link finish, chain
   arrivals), kept as the oracle for the kernel's two tie rules.  It reads
   the state through the public accessors and keeps its own writes in
   overlays, so it models the one-port and macro-dataflow models on a
   clique under append semantics. *)
let reference_booking net ~platform ~colocate_exclusive ~proc ~exec ~inputs =
  let one_port = Netstate.model net = Netstate.One_port in
  let sf = Hashtbl.create 8 and link = Hashtbl.create 8 in
  let send_free p =
    Option.value (Hashtbl.find_opt sf p) ~default:(Netstate.send_free net p)
  in
  let link_ready s =
    Option.value (Hashtbl.find_opt link s)
      ~default:(Netstate.link_ready net ~src:s ~dst:proc)
  in
  let rf = ref (Netstate.recv_free net proc) in
  let locals = ref [] in
  let per_pred =
    List.map
      (fun (pred, sources) ->
        match List.filter (fun s -> s.Netstate.s_proc = proc) sources with
        | s :: _ when colocate_exclusive ->
            locals := (pred, s.Netstate.s_replica, s.Netstate.s_finish) :: !locals;
            ([ s ], [])
        | s :: _ ->
            locals := (pred, s.Netstate.s_replica, s.Netstate.s_finish) :: !locals;
            (sources, List.filter (fun s' -> s'.Netstate.s_proc <> proc) sources)
        | [] -> (sources, sources))
      inputs
  in
  let send_order =
    List.stable_sort
      (fun a b ->
        let c = compare a.Netstate.s_finish b.Netstate.s_finish in
        if c <> 0 then c
        else
          compare
            (a.Netstate.s_proc, a.Netstate.s_task, a.Netstate.s_replica)
            (b.Netstate.s_proc, b.Netstate.s_task, b.Netstate.s_replica))
      (List.concat_map snd per_pred)
  in
  let legs =
    List.map
      (fun s ->
        let sp = s.Netstate.s_proc in
        let w =
          Platform.comm_time platform ~src:sp ~dst:proc ~volume:s.Netstate.s_volume
        in
        if one_port then begin
          let start =
            Float.max (send_free sp) (Float.max s.Netstate.s_finish (link_ready sp))
          in
          Hashtbl.replace sf sp (start +. w);
          Hashtbl.replace link sp (start +. w);
          (s, w, start, start +. w)
        end
        else (s, w, s.Netstate.s_finish, s.Netstate.s_finish +. w))
      send_order
  in
  let messages =
    List.map
      (fun (s, w, leg_start, leg_finish) ->
        let arrival =
          if one_port then begin
            rf := w +. Float.max !rf leg_start;
            !rf
          end
          else leg_finish
        in
        {
          Netstate.m_source = s;
          m_dst_proc = proc;
          m_duration = w;
          m_leg_start = leg_start;
          m_leg_finish = leg_finish;
          m_arrival = arrival;
        })
      (List.stable_sort
         (fun (_, _, _, f1) (_, _, _, f2) -> compare f1 f2)
         legs)
  in
  let arrival_of s =
    List.fold_left
      (fun acc m -> if m.Netstate.m_source = s then m.Netstate.m_arrival else acc)
      infinity messages
  in
  let data_ready =
    List.fold_left
      (fun acc (sources, remote) ->
        let local_ready =
          List.fold_left
            (fun b s ->
              if s.Netstate.s_proc = proc then Float.min b s.Netstate.s_finish
              else b)
            infinity sources
        in
        let remote_ready =
          List.fold_left (fun b s -> Float.min b (arrival_of s)) infinity remote
        in
        Float.max acc (Float.min local_ready remote_ready))
      0. per_pred
  in
  let b_start = Float.max (Netstate.proc_ready net proc) data_ready in
  {
    Netstate.b_start;
    b_finish = b_start +. exec;
    b_messages = messages;
    b_local = List.rev !locals;
  }

(* Small integer times, volumes and delays: equal source finishes and
   equal link finishes are the common case, so both tie rules decide. *)
let prop_kernel_matches_reference seed =
  let rng = Rng.create seed in
  let m = 2 + Rng.int rng 6 in
  let model =
    if Rng.int rng 2 = 0 then Netstate.One_port else Netstate.Macro_dataflow
  in
  let platform = Platform.uniform ~m ~delay:1. in
  let ledger = Oracle_booking.ledger ~model platform in
  let net = ledger.Oracle_booking.net in
  let next_task = ref 0 in
  let random_inputs () =
    List.init (1 + Rng.int rng 5) (fun _ ->
        let task = !next_task in
        incr next_task;
        let volume = float_of_int (1 + Rng.int rng 3) in
        ( task,
          List.init (1 + Rng.int rng 3) (fun r ->
              src ~task ~replica:r ~proc:(Rng.int rng m)
                ~finish:(float_of_int (Rng.int rng 6))
                ~volume) ))
  in
  for _ = 1 to Rng.int rng 8 do
    ignore
      (Oracle_booking.commit ledger ~proc:(Rng.int rng m)
         ~exec:(float_of_int (1 + Rng.int rng 4))
         ~inputs:(random_inputs ()))
  done;
  let inputs = random_inputs () in
  let colocate_exclusive = Rng.int rng 2 = 0 in
  for proc = 0 to m - 1 do
    let exec = float_of_int (1 + Rng.int rng 4) in
    let expected =
      reference_booking net ~platform ~colocate_exclusive ~proc ~exec ~inputs
    in
    let b =
      Oracle_booking.book_replica ~colocate_exclusive
        (Oracle_booking.twin ledger) ~proc ~exec ~inputs
    in
    if b <> expected then
      QCheck.Test.fail_reportf "seed %d proc %d: kernel booking differs from the reference"
        seed proc
  done;
  true

let qcheck_reference =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20080914 |])
    (QCheck.Test.make ~count:300
       ~name:"kernel == list-based reference booking, tie-heavy (qcheck)"
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 1_000_000))
       prop_kernel_matches_reference)

(* -- golden schedules -------------------------------------------------- *)

let fingerprint sched =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "R %d %d %d %.17g %.17g\n" r.Schedule.r_task
           r.Schedule.r_index r.Schedule.r_proc r.Schedule.r_start
           r.Schedule.r_finish);
      List.iter
        (function
          | Schedule.Local { l_pred; l_pred_replica; l_finish } ->
              Buffer.add_string b
                (Printf.sprintf "L %d %d %.17g\n" l_pred l_pred_replica
                   l_finish)
          | Schedule.Message m ->
              Buffer.add_string b
                (Printf.sprintf "M %d %d %d %d %.17g %.17g %.17g %.17g\n"
                   m.Netstate.m_source.Netstate.s_task
                   m.Netstate.m_source.Netstate.s_replica
                   m.Netstate.m_source.Netstate.s_proc m.Netstate.m_dst_proc
                   m.Netstate.m_duration m.Netstate.m_leg_start
                   m.Netstate.m_leg_finish m.Netstate.m_arrival))
        r.Schedule.r_inputs)
    (Schedule.all_replicas sched);
  Digest.to_hex (Digest.string (Buffer.contents b))

let instance ~seed ~m ~tasks =
  let rng = Rng.create seed in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = tasks; tasks_max = tasks }
  in
  let params = Platform_gen.default ~m () in
  Platform_gen.instance rng ~granularity:1.0 params dag

let topology_instance ~seed topo =
  let rng = Rng.create seed in
  let dag =
    Random_dag.generate rng
      { Random_dag.default with Random_dag.tasks_min = 25; tasks_max = 25 }
  in
  Costs.create dag (Topology.platform topo) (fun t p ->
      50. +. (17. *. float_of_int ((t + (3 * p)) mod 7)))

let ring_instance ~seed ~m = topology_instance ~seed (Topology.ring m)

(* Schedules over sparse topologies, fingerprinted by the bytes of
   their saved file: digests recorded while the routes were still passed
   next to the platform, before the platform owned them, and before the
   file carried the interconnect.  So the digest skips the [links] and
   [route] lines; "routed goldens through a file" checks that those
   lines bring the routes back. *)
let file_digest sched =
  String.split_on_char '\n' (Schedule_io.to_string sched)
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"links " l
           || String.starts_with ~prefix:"route " l))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let topology_goldens =
  List.concat_map
    (fun (tname, topo, digests) ->
      List.map2
        (fun (aname, run) digest ->
          ( tname ^ "/" ^ aname,
            digest,
            fun () -> run (topology_instance ~seed:11 (topo ())) ))
        [
          ("caft", fun c -> Caft.run ~seed:1111 ~epsilon:1 c);
          ("ftsa", fun c -> Ftsa.run ~seed:1111 ~epsilon:1 c);
          ("ftbar", fun c -> Ftbar.run ~seed:1111 ~epsilon:1 c);
          ("heft", fun c -> Heft.run ~seed:1111 c);
        ]
        digests)
    [
      ( "star8",
        (fun () -> Topology.star 8),
        [
          "74cbaa792dfc926166ca0c1b2a6dd9dd";
          "7fb621fe11979d9aaba7374bc1501305";
          "b059dfc38d554d320edd2c86cc1fa0d3";
          "a3d9964f7122a257dcc849cd9a4af9a1";
        ] );
      ( "torus2x4",
        (fun () -> Topology.torus2d ~rows:2 ~cols:4 ()),
        [
          "88aa7d1334fed157e314f31ef7771dc4";
          "a32d7e0c0efb731bc98ffc22b6bcd994";
          "b415b4667a30671fba5e1bba4e474c95";
          "507ffc96f270adc9bba139a28f9412a3";
        ] );
      ( "hypercube3",
        (fun () -> Topology.hypercube 3),
        [
          "4f7de53c25c5e68e92a41d6768a3fdb6";
          "0eabc74504fa44c1427abba53a364831";
          "fb0da839c0bf646f1e93bf966f546254";
          "ed33c4cb9c5cde69e0010414844ed3f1";
        ] );
    ]

(* Digests recorded from the seed commit (pre-fast-path code): the
   optimization must keep every schedule byte-identical. *)
let golden_cases =
  [
    ( "caft/seed1/m6/eps1",
      "f72383a7b99fba3248753240d9ddfcf2",
      fun () -> Caft.run ~seed:101 ~epsilon:1 (instance ~seed:1 ~m:6 ~tasks:30)
    );
    ( "caft/seed2/m10/eps2",
      "8dfe26d82319dcb434d89252a9530289",
      fun () ->
        Caft.run ~seed:202 ~epsilon:2 (instance ~seed:2 ~m:10 ~tasks:40) );
    ( "caft-full/seed1/m6/eps1",
      "d7fe8969ac8e66d293cdc533173d9ed5",
      fun () ->
        Caft.run ~one_to_one:false ~seed:101 ~epsilon:1
          (instance ~seed:1 ~m:6 ~tasks:30) );
    ( "caft-macro/seed3/m8/eps1",
      "ce6fbd9bef873a8d470b621c96f5b4d9",
      fun () ->
        Caft.run ~model:Netstate.Macro_dataflow ~seed:303 ~epsilon:1
          (instance ~seed:3 ~m:8 ~tasks:30) );
    ( "caft-mp2/seed3/m8/eps1",
      "d0f69dcc6c76dbfe2f183e62ced77db7",
      fun () ->
        Caft.run ~model:(Netstate.Multiport 2) ~seed:303 ~epsilon:1
          (instance ~seed:3 ~m:8 ~tasks:30) );
    ( "ftsa/seed1/m6/eps1",
      "85a948c83ff792155c41722ea1eb5576",
      fun () -> Ftsa.run ~seed:101 ~epsilon:1 (instance ~seed:1 ~m:6 ~tasks:30)
    );
    ( "ftbar/seed1/m6/eps1",
      "cf39a83f77e0f8b349ef09310ae63b0f",
      fun () ->
        Ftbar.run ~seed:101 ~epsilon:1 (instance ~seed:1 ~m:6 ~tasks:30) );
    ( "caft-batch5/seed4/m6/eps1",
      "3c0da465bdb0d2ce637f871cda04966f",
      fun () ->
        Caft_batch.run ~seed:404 ~window:5 ~epsilon:1
          (instance ~seed:4 ~m:6 ~tasks:30) );
    ( "caft-ring/seed5/m8/eps1",
      "f0dc42464d7ca8a6ae4bbe7678cedd07",
      fun () ->
        Caft.run ~seed:505 ~epsilon:1 (ring_instance ~seed:5 ~m:8) );
    (* Recorded before the per-placement leg table replaced the
       per-candidate estimate memo: these reach the table's other paths —
       epsilon = 0, demotion with the no-demotion certificate failing
       (m = 5, epsilon = 3), a routed fabric at epsilon = 2 and the batch
       variant's [estimate_finish]. *)
    ( "caft-ff/seed1/m6",
      "aebf6cf288051542b90cbc4c7721f1e2",
      fun () -> Caft.fault_free ~seed:101 (instance ~seed:1 ~m:6 ~tasks:30) );
    ( "caft/seed6/m5/eps3",
      "7817f9daa4e2bcc00068b49d94369339",
      fun () -> Caft.run ~seed:606 ~epsilon:3 (instance ~seed:6 ~m:5 ~tasks:30)
    );
    ( "caft-ring/seed7/m8/eps2",
      "eefbdb40fb93c2a717cc3872c2337e7d",
      fun () ->
        Caft.run ~seed:707 ~epsilon:2 (ring_instance ~seed:7 ~m:8) );
    ( "caft-batch5/seed9/m8/eps2",
      "843065f0b55b4dbfdaf1c75d5e96c242",
      fun () ->
        Caft_batch.run ~seed:909 ~window:5 ~epsilon:2
          (instance ~seed:9 ~m:8 ~tasks:30) );
    ( "heft/seed5/m6",
      "c0906788be6a48e4a1786544e4fc1c3a",
      fun () -> Heft.run ~seed:505 (instance ~seed:5 ~m:6 ~tasks:30) );
  ]

let test_golden_schedules () =
  List.iter
    (fun (name, expected, run) ->
      Alcotest.(check string) name expected (fingerprint (run ())))
    golden_cases;
  List.iter
    (fun (name, expected, run) ->
      Alcotest.(check string) name expected (file_digest (run ())))
    topology_goldens

(* Each routed golden prints, parses back onto the same routed platform
   and prints again to the same text. *)
let test_routed_goldens_through_a_file () =
  List.iter
    (fun (name, _, run) ->
      let sched = run () in
      let text = Schedule_io.to_string sched in
      let parsed = Schedule_io.of_string text in
      Helpers.check_bool (name ^ " keeps its platform") true
        (Schedule.platform parsed = Schedule.platform sched);
      Alcotest.(check string) (name ^ " prints again") text
        (Schedule_io.to_string parsed))
    topology_goldens

(* -- pruning metric ---------------------------------------------------- *)

let test_pruning_fires () =
  Obs_metrics.set_enabled true;
  Obs_metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs_metrics.reset ();
      Obs_metrics.set_enabled false)
    (fun () ->
      ignore (Caft.run ~epsilon:2 (instance ~seed:7 ~m:10 ~tasks:40));
      let counter name =
        match Obs_metrics.find name with
        | Some (Obs_metrics.Counter n) -> n
        | _ -> Alcotest.failf "counter %s missing" name
      in
      let evaluated = counter "caft.candidates_evaluated" in
      let pruned = counter "caft.candidates_pruned" in
      Helpers.check_bool "some candidates evaluated" true (evaluated > 0);
      Helpers.check_bool "some candidates pruned" true (pruned > 0);
      Helpers.check_int "pruned = stage0 + weak + plan" pruned
        (counter "caft.pruned.stage0" + counter "caft.pruned.weak"
       + counter "caft.pruned.plan"))

let suite =
  [
    Alcotest.test_case "probe == snapshot/restore" `Quick
      test_trial_vs_twin;
    qcheck_probe;
    qcheck_reference;
    Alcotest.test_case "schedules byte-identical to seed commit" `Quick
      test_golden_schedules;
    Alcotest.test_case "routed goldens through a file" `Quick
      test_routed_goldens_through_a_file;
    Alcotest.test_case "candidate pruning fires" `Quick test_pruning_fires;
  ]
