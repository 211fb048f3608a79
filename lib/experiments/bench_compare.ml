(* Pairwise comparison of two ftsched/bench/v1 documents.

   The committed BENCH_schedulers.json is the performance baseline; CI
   re-runs the quick bench and diffs the fresh numbers against it with
   [ftsched benchdiff].  Only keys present in BOTH documents are
   compared (bench rows vary with --quick and machine class), so adding
   an m-point never trips the diff; keys that exist only on one side are
   reported as "missing" for the human reading the table.

   A regression is a change beyond the threshold in the metric's bad
   direction — slower ns/op, lower scenarios/s.  Improvements beyond the
   threshold are listed too (they often mean the baseline is stale) but
   never affect the exit code. *)

type direction = Higher_better | Lower_better

type entry = {
  e_key : string;
  e_old : float;
  e_new : float;
  e_change_pct : float;
      (* signed: positive = regression direction, whatever the metric *)
  e_direction : direction;
}

type result = {
  c_threshold_pct : float;
  c_filter : string option;
  c_entries : entry list;
  c_only_old : string list;
  c_only_new : string list;
}

(* -- metric extraction -------------------------------------------------- *)

let num k o = Option.bind (Json.member k o) Json.to_float

let int_key k o =
  match Option.bind (Json.member k o) Json.to_int with
  | Some i -> string_of_int i
  | None -> "?"

let str_key k o =
  match Option.bind (Json.member k o) Json.to_str with
  | Some s -> s
  | None -> "?"

let rows section doc =
  Json.member section doc |> Option.fold ~none:[] ~some:Json.to_list

(* Flatten one bench document into (key, value, direction) metrics. *)
let metrics doc =
  let out = ref [] in
  let push key v dir =
    match v with
    | Some x when not (Float.is_nan x) -> out := (key, x, dir) :: !out
    | _ -> ()
  in
  List.iter
    (fun r ->
      let m = int_key "m" r in
      push
        (Printf.sprintf "replay/m=%s rebuild_ns_per_scenario" m)
        (num "rebuild_ns_per_scenario" r)
        Lower_better;
      push
        (Printf.sprintf "replay/m=%s compiled_ns_per_scenario" m)
        (num "compiled_ns_per_scenario" r)
        Lower_better)
    (rows "replay" doc);
  List.iter
    (fun r ->
      let m = int_key "m" r in
      push
        (Printf.sprintf "replay_batch/m=%s batched_ns_per_scenario" m)
        (num "batched_ns_per_scenario" r)
        Lower_better;
      push
        (Printf.sprintf "replay_batch/m=%s batched_vs_rebuild" m)
        (num "batched_vs_rebuild" r)
        Higher_better)
    (rows "replay_batch" doc);
  List.iter
    (fun r ->
      push
        (Printf.sprintf "replay_domains/domains=%s scenarios_per_sec"
           (int_key "domains" r))
        (num "scenarios_per_sec" r)
        Higher_better)
    (rows "replay_domains" doc);
  (* Scheduler scaling.  Absolute tasks/sec varies with the machine class,
     so those keys are advisory (prefix deliberately outside the
     "sched_scale" filter the CI gate uses); the same-run scaling
     efficiency tps(1e4)/tps(1e3) is a within-host ratio and carries the
     gating prefix. *)
  List.iter
    (fun r ->
      push
        (Printf.sprintf "sched_throughput/%s/n=%s/m=%s tasks_per_sec"
           (str_key "family" r) (int_key "n" r) (int_key "m" r))
        (num "tasks_per_sec" r)
        Higher_better)
    (rows "sched_scale" doc);
  List.iter
    (fun r ->
      push
        (Printf.sprintf "sched_scale/%s/m=%s efficiency_1e4_over_1e3"
           (str_key "family" r) (int_key "m" r))
        (num "efficiency_1e4_over_1e3" r)
        Higher_better)
    (rows "sched_efficiency" doc);
  List.rev !out

(* -- comparison --------------------------------------------------------- *)

let change_pct dir vold vnew =
  if vold = 0. then 0.
  else
    let raw = (vnew -. vold) /. vold *. 100. in
    match dir with Lower_better -> raw | Higher_better -> -.raw

(* plain substring match; [filter] strings are short metric-key fragments *)
let contains ~sub s =
  let n = String.length sub and l = String.length s in
  if n = 0 then true
  else begin
    let found = ref false in
    for i = 0 to l - n do
      if (not !found) && String.sub s i n = sub then found := true
    done;
    !found
  end

let compare_docs ?filter ~threshold_pct old_doc new_doc =
  let keep (k, _, _) =
    match filter with None -> true | Some sub -> contains ~sub k
  in
  let olds = List.filter keep (metrics old_doc)
  and news = List.filter keep (metrics new_doc) in
  let entries =
    List.filter_map
      (fun (key, vold, dir) ->
        match List.find_opt (fun (k, _, _) -> k = key) news with
        | Some (_, vnew, _) ->
            Some
              {
                e_key = key;
                e_old = vold;
                e_new = vnew;
                e_change_pct = change_pct dir vold vnew;
                e_direction = dir;
              }
        | None -> None)
      olds
  in
  let keys l = List.map (fun (k, _, _) -> k) l in
  let missing_from from l =
    List.filter (fun k -> not (List.exists (fun (k', _, _) -> k' = k) from)) l
  in
  {
    c_threshold_pct = threshold_pct;
    c_filter = filter;
    c_entries = entries;
    c_only_old = missing_from news (keys olds);
    c_only_new = missing_from olds (keys news);
  }

let regressions r =
  List.filter (fun e -> e.e_change_pct >= r.c_threshold_pct) r.c_entries

let improvements r =
  List.filter (fun e -> e.e_change_pct <= -.r.c_threshold_pct) r.c_entries

(* A gate that compares nothing cannot fail, so a renamed key or a
   dropped section would pass it silently: a filtered comparison with no
   common entry is a failure of its own.  Keys on one side only are fine
   (the quick bench skips the large rows). *)
let vacuous r = r.c_filter <> None && r.c_entries = []

(* -- rendering ---------------------------------------------------------- *)

let verdict r e =
  if e.e_change_pct >= r.c_threshold_pct then "REGRESSION"
  else if e.e_change_pct <= -.r.c_threshold_pct then "improved"
  else "ok"

let to_table r =
  let t =
    Text_table.create
      ~aligns:[ Text_table.Left ]
      [ "metric"; "old"; "new"; "change"; "verdict" ]
  in
  List.iter
    (fun e ->
      (* signed change shown in the metric's own direction so "+" always
         reads as "got worse" *)
      Text_table.add_row t
        [
          e.e_key;
          Printf.sprintf "%.1f" e.e_old;
          Printf.sprintf "%.1f" e.e_new;
          Printf.sprintf "%+.1f%%" e.e_change_pct;
          verdict r e;
        ])
    r.c_entries;
  t

let summary r =
  let n_reg = List.length (regressions r) in
  let n_imp = List.length (improvements r) in
  Printf.sprintf
    "%d metric(s) compared, %d regression(s) beyond %.0f%%, %d improvement(s)%s"
    (List.length r.c_entries) n_reg r.c_threshold_pct n_imp
    (match (r.c_only_old, r.c_only_new) with
    | [], [] -> ""
    | o, n ->
        Printf.sprintf " (%d only in old, %d only in new)" (List.length o)
          (List.length n))
  ^
  match r.c_filter with
  | Some sub when vacuous r ->
      Printf.sprintf "; filter %S matches no metric on both sides" sub
  | _ -> ""
