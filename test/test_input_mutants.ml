(* Byte mutants of valid inputs for the text surfaces other than schedule
   files (test_schedule.ml has those): DOT graphs, JSON documents,
   certificates, campaign checkpoints, serve request frames and the serve
   cache journal.  Each
   reader must answer every mutant with its documented error, never with
   another exception. *)

(* A mutant: a base (its number taken modulo the number of bases) and
   the mutations applied to it in turn, each (kind, position, byte).
   Kinds: 0 replace the byte at the position, 1 delete it, 2 insert the
   byte before it, 3 truncate there, 4 duplicate the next eight bytes. *)
type mutant = { base : int; ops : (int * int * char) list }

let apply_op s (kind, pos, c) =
  let n = String.length s in
  if n = 0 then String.make 1 c
  else
    let i = pos mod n in
    match kind with
    | 0 -> String.mapi (fun j x -> if j = i then c else x) s
    | 1 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 2 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | 3 -> String.sub s 0 i
    | _ ->
        let k = min 8 (n - i) in
        String.sub s 0 (i + k) ^ String.sub s i (n - i)

let mutate bases m =
  List.fold_left apply_op bases.(m.base mod Array.length bases) m.ops

(* Bytes a mutation writes: the punctuation and digits of the three
   grammars half of the time, any byte otherwise. *)
let alphabet = "{}[]:,;=\"\\-+.0123456789eE>/*#\n\t anultrf"

let mutant_gen =
  QCheck.Gen.(
    map
      (fun (base, ops) -> { base; ops })
      (pair (int_bound 1_000)
         (list_size (int_range 1 4)
            (triple (int_bound 4) (int_bound 100_000)
               (frequency
                  [
                    ( 1,
                      map
                        (fun i -> alphabet.[i])
                        (int_bound (String.length alphabet - 1)) );
                    (1, char);
                  ])))))

let arbitrary bases =
  QCheck.make mutant_gen ~print:(fun m ->
      Printf.sprintf "%S" (mutate (Lazy.force bases) m))

(* -- DOT ------------------------------------------------------------------ *)

let dot_bases =
  lazy
    (let exported seed =
       let rng = Rng.create seed in
       Dot.to_string
         (Random_dag.generate rng
            { Random_dag.default with Random_dag.tasks_min = 6; tasks_max = 6 })
     in
     [|
       exported 1;
       exported 2;
       {|digraph test {
  a [label="load"];
  b;
  a -> b [label="42.5"];
}|};
       {|// a comment
strict digraph "named graph" {
  rankdir=TB;
  node [shape=box];
  /* block
     comment */
  # hash comment
  x -> y -> z [label="7"]; y -> w
  "node one" -> "node two" [weight=3, label="1e2"];
}|};
     |])

(* The documented exceptions of [Dot.parse]; every other is a failure. *)
let prop_dot_mutants =
  QCheck.Test.make ~count:5000 ~name:"DOT mutants raise only documented errors"
    (arbitrary dot_bases)
    (fun m ->
      match Dot.parse (mutate (Lazy.force dot_bases) m) with
      | _ -> true
      | exception (Dot.Parse_error _ | Dag.Cycle _) -> true
      | exception Invalid_argument msg ->
          msg = "Dag.Builder.add_edge: duplicate edge")

(* -- JSON ----------------------------------------------------------------- *)

(* A small CAFT schedule, its certificate, and a HEFT schedule with a
   refuted certificate: the JSON and certificate bases. *)
let certified =
  lazy
    (List.map
       (fun (seed, run) ->
         let _, costs = Helpers.random_instance ~seed ~m:4 ~tasks:8 () in
         let sched = run costs in
         let cert =
           Certificate.of_report sched (Resilience.certify ~epsilon:1 sched)
         in
         (sched, Json.to_string (Certificate.to_json cert)))
       [
         (3, fun costs -> Caft.run ~epsilon:1 costs);
         (4, fun costs -> Ftsa.run ~epsilon:1 costs);
         (5, fun costs -> Heft.run costs);
       ])

let json_bases =
  lazy
    (Array.of_list
       (List.map snd (Lazy.force certified)
       @ [
           Json.to_string ~indent:2
             (Json.parse_exn (snd (List.hd (Lazy.force certified))));
           {|{"s": "tab\t quote\" back\\ \u00e9 \ud83d\ude00", "n": [0, -1, 2.5, -0.125e-3, 1E300, 12345678901234567890, 12345678901234.567890, 999999999999.9999], "b": [true, false, null], "o": {"": {}, "x": []}}|};
         ]))

(* [Json.parse] answers every mutant with a result, never an exception,
   and the printed text of a parsed mutant is a fixed point: it parses
   back to a value that prints the same. *)
let prop_json_mutants =
  QCheck.Test.make ~count:5000 ~name:"JSON mutants return Error, never raise"
    (arbitrary json_bases)
    (fun m ->
      match Json.parse (mutate (Lazy.force json_bases) m) with
      | Error _ -> true
      | Ok v ->
          let text = Json.to_string v in
          Json.to_string (Json.parse_exn text) = text)

(* -- certificates --------------------------------------------------------- *)

(* Values a certificate edit puts in place of one JSON node: ids in and
   out of range, the extreme ints, the verdict and witness words, and
   every other constructor.  [None] drops the node from its list or
   object. *)
let replacements =
  Json.
    [|
      Some (Int (-1)); Some (Int 0); Some (Int 1); Some (Int 3); Some (Int 4);
      Some (Int 99); Some (Int max_int); Some (Int min_int); Some (Float 0.5);
      Some (String "x"); Some (String "refuted"); Some (String "certified");
      Some (String "min-cut"); Some (String "disjoint-supports"); Some Null;
      Some (Bool true); Some (Bool false); Some (List []);
      Some (List [ Int 0; Int 1 ]); Some (Obj []); None;
    |]

(* [v] with its [k]-th node in pre-order (modulo the node count) replaced
   by replacement [r] *)
let edit_node v (k, r) =
  let rec size = function
    | Json.List items -> List.fold_left (fun n x -> n + size x) 1 items
    | Json.Obj fields -> List.fold_left (fun n (_, x) -> n + size x) 1 fields
    | _ -> 1
  in
  let target = k mod size v in
  let seen = ref (-1) in
  let rec go v =
    incr seen;
    if !seen = target then replacements.(r mod Array.length replacements)
    else
      match v with
      | Json.List items -> Some (Json.List (List.filter_map go items))
      | Json.Obj fields ->
          Some
            (Json.Obj
               (List.filter_map
                  (fun (key, x) -> Option.map (fun y -> (key, y)) (go x))
                  fields))
      | leaf -> Some leaf
  in
  Option.value (go v) ~default:Json.Null

(* A certificate mutant: one to three node edits of a base certificate,
   then, for half of them, the byte mutations of [m] on its text. *)
let cert_mutant_gen =
  QCheck.Gen.(
    triple bool (list_size (int_range 1 3) (pair nat nat)) mutant_gen)

let cert_text bases (bytes, edits, m) =
  let base = bases.(m.base mod Array.length bases) in
  let text =
    Json.to_string (List.fold_left edit_node (Json.parse_exn base) edits)
  in
  if bytes then mutate [| text |] m else text

(* Every mutant either fails to parse, or [Certificate.of_json] returns a
   result and [Certificate.check] of an accepted certificate returns a
   result — against its own schedule and against the others. *)
let prop_certificate_mutants =
  let bases = lazy (Array.of_list (List.map snd (Lazy.force certified))) in
  QCheck.Test.make ~count:2000
    ~name:"certificate mutants: of_json and check never raise"
    (QCheck.make cert_mutant_gen ~print:(fun c ->
         Printf.sprintf "%S" (cert_text (Lazy.force bases) c)))
    (fun c ->
      match Json.parse (cert_text (Lazy.force bases) c) with
      | Error _ -> true
      | Ok json -> (
          match Certificate.of_json json with
          | Error _ -> true
          | Ok cert ->
              List.for_all
                (fun (sched, _) ->
                  match Certificate.check sched cert with
                  | Ok () | Error _ -> true)
                (Lazy.force certified)))

(* -- campaign checkpoints ------------------------------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "ftsched_mutant" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Two granularity points of one graph each: a mutant that loses a point
   costs its recomputation, a few milliseconds. *)
let checkpoint_config =
  Config.with_graphs_per_point
    { (Config.figure 1) with Config.granularities = [ 0.5; 1.0 ] }
    1

let checkpoint_seed = 9

let run_checkpointed path =
  Campaign.run ~seed:checkpoint_seed ~domains:1 ~progress:ignore
    ~checkpoint:path checkpoint_config

let checkpoint_bases =
  lazy
    (with_temp_file (fun path ->
         ignore (run_checkpointed path);
         [| read_file path |]))

(* Resuming from a mutant raises only [Checkpoint_error], and exactly
   when the file is neither blank nor valid JSON. *)
let prop_checkpoint_mutants =
  QCheck.Test.make ~count:300
    ~name:"checkpoint mutants: resume raises only Checkpoint_error"
    (arbitrary checkpoint_bases)
    (fun m ->
      let text = mutate (Lazy.force checkpoint_bases) m in
      let readable =
        String.trim text = "" || Result.is_ok (Json.parse text)
      in
      with_temp_file (fun path ->
          write_file path text;
          match run_checkpointed path with
          | r -> readable && List.length r.Campaign.points = 2
          | exception Campaign.Checkpoint_error _ -> not readable))

(* -- serve request frames ---------------------------------------------- *)

(* One valid frame per op, with ids of every scalar kind, a deadline and
   the protocol version.  The frame limit sits between the bases' sizes
   and what a few duplications reach, so [Oversized] is exercised. *)
let frame_bases =
  lazy
    [|
      {|{"v":1,"id":42,"op":"schedule","params":{"seed":7,"tasks":12,"m":4,"epsilon":1},"deadline_ms":5000}|};
      {|{"id":"r-1","op":"replay","params":{"seed":3,"tasks":10,"m":4,"epsilon":1,"crashed":[0,2],"algo":"ftsa"}}|};
      {|{"v":1,"id":null,"op":"montecarlo","params":{"seed":9,"tasks":8,"m":3,"epsilon":1,"runs":50,"crashes":1,"granularity":0.5}}|};
      {|{"id":2.5,"op":"analyze","params":{"family":"fork","tasks":6,"m":3,"epsilon":1,"model":"multiport-2"},"deadline_ms":12.5}|};
      {|{"v":1,"id":true,"op":"ping"}|};
      {|{"op":"stats","params":{}}|};
    |]

let frame_limit = 128

(* every base is a request the daemon accepts as is *)
let test_frame_bases () =
  let ctx = Serve_ops.create () in
  Array.iter
    (fun base ->
      match Serve_protocol.parse_request ~max_frame:frame_limit base with
      | Error (_, e) -> Alcotest.failf "%s: %s" base e
      | Ok rq when List.mem rq.Serve_protocol.rq_op Serve_ops.ops -> (
          match
            Serve_ops.prepare ctx ~op:rq.Serve_protocol.rq_op
              ~params:rq.Serve_protocol.rq_params
          with
          | Ok _ -> ()
          | Error (_, e) -> Alcotest.failf "%s: %s" base e)
      | Ok _ -> ())
    (Lazy.force frame_bases)

(* The parser answers every mutant with a request or one of its two
   error classes, and every parsed request's op and parameters get a
   prepared evaluation or a [Bad_request] from [Serve_ops.prepare]. *)
let prop_frame_mutants =
  let ctx = Serve_ops.create () in
  QCheck.Test.make ~count:5000
    ~name:"serve frame mutants: a request or a closed error class"
    (arbitrary frame_bases)
    (fun m ->
      match
        Serve_protocol.parse_request ~max_frame:frame_limit
          (mutate (Lazy.force frame_bases) m)
      with
      | Error ((Serve_protocol.Bad_request | Oversized), _) -> true
      | Error _ -> false
      | Ok rq -> (
          (not (List.mem rq.Serve_protocol.rq_op Serve_ops.ops))
          ||
          match
            Serve_ops.prepare ctx ~op:rq.Serve_protocol.rq_op
              ~params:rq.Serve_protocol.rq_params
          with
          | Ok _ | Error (Serve_protocol.Bad_request, _) -> true
          | Error _ -> false))

(* -- serve cache journal --------------------------------------------------- *)

(* Canonical result bytes, as the daemon renders them; one holds a float
   whose 12 significant digits read back as an integer. *)
let journal_entries =
  List.mapi
    (fun i result -> (Printf.sprintf "k%02d" i, Json.to_string result))
    Json.
      [
        Obj [ ("latency", Float 12.5); ("procs", List [ Int 0; Int 1 ]) ];
        Obj [ ("name", String "tab\t quote\" back\\"); ("ok", Bool true) ];
        List [ Float 12345678901234.567; Float (-0.125e-3); Null ];
        Obj [ ("nested", Obj [ ("x", List []); ("", Obj []) ]) ];
        Float 1e300;
        Int 42;
      ]

let journal_bases =
  lazy
    (with_temp_file (fun path ->
         Sys.remove path;
         match Serve_cache.journaled ~resume:false path with
         | Error e -> failwith e
         | Ok (c, _) ->
             List.iter
               (fun (key, result) -> Serve_cache.add c ~key ~op:"schedule" result)
               journal_entries;
             Serve_cache.close c;
             [| read_file path |]))

(* Loading a mutant never raises, and it keeps every entry of the lines
   before the first one the mutation touched, with its exact bytes.  The
   loaded cache then compacts to a journal that reloads whole. *)
let prop_journal_mutants =
  QCheck.Test.make ~count:1000
    ~name:"journal mutants: load keeps the intact prefix"
    (arbitrary journal_bases)
    (fun m ->
      let base = (Lazy.force journal_bases).(0) in
      let text = mutate [| base |] m in
      let lines s = String.split_on_char '\n' s in
      let rec intact acc = function
        | l :: ls, l' :: ls' when l = l' -> intact (l :: acc) (ls, ls')
        | _ -> List.filter (( <> ) "") acc
      in
      let kept = List.length (intact [] (lines base, lines text)) in
      with_temp_file (fun path ->
          write_file path text;
          match Serve_cache.journaled ~resume:true path with
          | Error e -> QCheck.Test.fail_report e
          | Ok (c, rc) ->
              let prefix_kept =
                List.for_all
                  (fun (key, result) ->
                    Serve_cache.find c ~key = Some result)
                  (List.filteri (fun i _ -> i < kept) journal_entries)
              in
              let entries = Serve_cache.entries c in
              Serve_cache.close c;
              let reloaded =
                match Serve_cache.journaled ~resume:true path with
                | Error _ -> None
                | Ok (c', rc') ->
                    Serve_cache.close c';
                    Some rc'
              in
              prefix_kept
              && rc.Serve_cache.rc_entries >= kept
              && reloaded
                 = Some { Serve_cache.rc_entries = entries; rc_skipped = 0 }))

let suite =
  List.map
    (fun (seed, t) ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t)
    [
      (260_001, prop_dot_mutants);
      (260_002, prop_json_mutants);
      (260_003, prop_certificate_mutants);
      (260_004, prop_checkpoint_mutants);
      (260_005, prop_journal_mutants);
      (280_003, prop_frame_mutants);
    ]
  @ [
      Alcotest.test_case "serve frame bases are accepted" `Quick
        test_frame_bases;
    ]
