(* The ftsched benchmark: runs one workload for a given time and prints
   its metrics, the last line being one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Without --trace the
   metrics are the end-to-end ones; with --trace 1, the per-layer ones,
   from a run that alternates plain and traced iterations and writes its
   spans to OUT/trace-WORKLOAD.json.  perfbench/README.md describes the
   workloads and metrics; perfbench/run.py builds and runs this from the
   root of a checkout. *)

open Common

(* Metric names and units come from BENCHMARK.json, the benchmark's
   definition, at the root of the checkout the benchmark runs from. *)
let metric_tables () =
  let doc = Json.parse_exn (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let table key =
    List.map
      (fun m ->
        let field k = Option.get (Option.bind (Json.member k m) Json.to_str) in
        (field "name", field "unit"))
      (Option.fold ~none:[] ~some:Json.to_list (Json.member key doc))
  in
  (table "end_to_end", table "per_layer")

let workloads =
  [
    ("sched_large", W_sched.run);
    ("paper_campaign", W_campaign.run);
    ("fault_campaign", W_fault.run);
    ("serve_mix", W_serve.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--ftsched EXE] [--pins FILE] [--out DIR] [--perturb] [--unknown-op]";
  exit 2

let parse_args argv =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        perturb = false;
        unknown_op = false;
        ftsched = "ftsched";
        pins = "perfbench/expected.json";
        out_dir = ".bench_out";
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> a := { !a with seed = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> a := { !a with seconds = float_of_string v }; go rest
    | "--trace" :: v :: rest -> a := { !a with trace = v = "1" }; go rest
    | "--ftsched" :: v :: rest -> a := { !a with ftsched = v }; go rest
    | "--pins" :: v :: rest -> a := { !a with pins = v }; go rest
    | "--out" :: v :: rest -> a := { !a with out_dir = v }; go rest
    | "--perturb" :: rest -> a := { !a with perturb = true }; go rest
    | "--unknown-op" :: rest -> a := { !a with unknown_op = true }; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  if not (List.mem_assoc !a.workload workloads) then usage ();
  !a

let json_metrics table values =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         (* a layer the workload does not exercise reads 0; a metric that
            could not be measured reads 0 too, and says so *)
         let v =
           match List.assoc_opt name values with
           | None -> 0.
           | Some v when Float.is_finite v -> v
           | Some _ ->
               Printf.eprintf "warning: %s not measured\n" name;
               0.
         in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       table)

let () =
  let args = parse_args Sys.argv in
  mkdir_p args.out_dir;
  at_exit W_serve.kill_all;
  let o = outcome () in
  let run = List.assoc args.workload workloads in
  (try run args o
   with e ->
     Printf.eprintf "%s: %s\n" args.workload (Printexc.to_string e);
     exit 1);
  if not (List.mem_assoc "peak_rss_mb" o.e2e) then e2e o "peak_rss_mb" (peak_rss_mb ());
  layer o "failed_frac" (float_of_int o.failed /. float_of_int (max 1 o.attempted));
  let end_to_end, per_layer = metric_tables () in
  let table, values =
    if args.trace then (per_layer, o.layer) else (end_to_end, o.e2e)
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then
        failwith ("metric missing from the table: " ^ name))
    values;
  List.iter (fun p -> Printf.printf "problem: %s\n" p) (List.rev o.problems);
  if args.trace then begin
    let path = Filename.concat args.out_dir ("trace-" ^ args.workload ^ ".json") in
    Span.write path (Span.spans ());
    Printf.printf "spans: %s\n" path;
    match List.assoc_opt "trace.coverage" o.layer with
    | Some c when c < 0.95 ->
        Printf.printf "flag: layer self times cover %.1f%% of the wall (< 95%%)\n"
          (100. *. c)
    | _ -> ()
  end;
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> Printf.printf "%-42s %14.6g %s\n" name v unit
      | None -> ())
    table;
  Printf.printf "digests: %s\n"
    (Json.to_string
       (Json.Obj (List.rev_map (fun (k, d) -> (k, Json.String d)) o.digests)));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0 && o.attempted > 0)
    (max 1 o.attempted) o.failed (json_metrics table values)
