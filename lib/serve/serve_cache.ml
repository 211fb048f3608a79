type entry = { e_key : string; e_op : string; e_result : string }

type t = {
  table : (string, entry) Hashtbl.t;
  mutable order : entry list; (* insertion order, newest first *)
  path : string option;
  mutable journal : out_channel option;
  mutable c_hits : int;
  mutable c_misses : int;
}

type recovery = { rc_entries : int; rc_skipped : int }

(* Memory bound: once full, new results are served but no longer cached. *)
let max_entries = 4096

let in_memory () =
  {
    table = Hashtbl.create 64;
    order = [];
    path = None;
    journal = None;
    c_hits = 0;
    c_misses = 0;
  }

let entry_line e =
  Json.to_string
    (Json.Obj
       [
         ("key", Json.String e.e_key);
         ("op", Json.String e.e_op);
         ("result", Json.parse_exn e.e_result);
       ])
  ^ "\n"

let decode_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok doc -> (
      match
        ( Option.bind (Json.member "key" doc) Json.to_str,
          Option.bind (Json.member "op" doc) Json.to_str,
          Json.member "result" doc )
      with
      | Some e_key, Some e_op, Some result ->
          (* re-render: [to_string] of a parsed value is a fixed point, so
             these are the exact bytes [add] wrote *)
          Some { e_key; e_op; e_result = Json.to_string result }
      | _ -> None)

let insert t e =
  if
    (not (Hashtbl.mem t.table e.e_key))
    && Hashtbl.length t.table < max_entries
  then begin
    Hashtbl.replace t.table e.e_key e;
    t.order <- e :: t.order
  end

let journaled ~resume path =
  let t = in_memory () in
  if not resume then
    if Sys.file_exists path then
      Error
        (Printf.sprintf
           "cache journal %s already exists: pass --resume to warm-restart \
            from it, or remove it to start fresh"
           path)
    else begin
      let journal = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Ok
        ( { t with path = Some path; journal = Some journal },
          { rc_entries = 0; rc_skipped = 0 } )
    end
  else begin
    (* Replay whatever survives on disk.  Decoding stops at the first
       undecodable line: everything before it is intact (appends are
       sequential), everything after is the torn tail of a kill -9. *)
    let entries = ref 0 and skipped = ref 0 in
    (if Sys.file_exists path then
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () ->
           let stop = ref false in
           try
             while not !stop do
               let line = input_line ic in
               if line <> "" then
                 match decode_line line with
                 | Some e ->
                     insert t e;
                     incr entries
                 | None ->
                     (* count the rest of the file as skipped *)
                     incr skipped;
                     (try
                        while true do
                          ignore (input_line ic);
                          incr skipped
                        done
                      with End_of_file -> ());
                     stop := true
             done
           with End_of_file -> ()));
    let journal = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    Ok
      ( { t with path = Some path; journal = Some journal },
        { rc_entries = !entries; rc_skipped = !skipped } )
  end

let find t ~key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.c_hits <- t.c_hits + 1;
      Some e.e_result
  | None ->
      t.c_misses <- t.c_misses + 1;
      None

let add t ~key ~op result =
  if not (Hashtbl.mem t.table key) then begin
    let e = { e_key = key; e_op = op; e_result = result } in
    insert t e;
    (* only journal what memory kept: the journal is a snapshot source,
       not an unbounded log *)
    if Hashtbl.mem t.table key then
      match t.journal with
      | None -> ()
      | Some oc ->
          output_string oc (entry_line e);
          (* flush per entry: a kill -9 then loses at most the torn tail
             of this line, and the OS owns the bytes from here *)
          flush oc
  end

let entries t = Hashtbl.length t.table
let hits t = t.c_hits
let misses t = t.c_misses

let compact t =
  match t.path with
  | None -> ()
  | Some path ->
      Option.iter close_out_noerr t.journal;
      t.journal <- None;
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          List.iter (fun e -> output_string oc (entry_line e)) (List.rev t.order));
      Sys.rename tmp path;
      t.journal <- Some (open_out_gen [ Open_append ] 0o644 path)

let close t =
  compact t;
  Option.iter close_out_noerr t.journal;
  t.journal <- None
