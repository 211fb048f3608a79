let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c -> if c = '"' then Buffer.add_string b "\\\"" else Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string g =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph \"dag\" {\n";
  Buffer.add_string b "  rankdir=TB;\n  node [shape=box];\n";
  for t = 0 to Dag.task_count g - 1 do
    Buffer.add_string b
      (Printf.sprintf "  n%d [label=\"%s\"];\n" t (escape (Dag.name g t)))
  done;
  Dag.iter_edges
    (fun u v vol ->
      Buffer.add_string b
        (Printf.sprintf "  n%d -> n%d [label=\"%.1f\"];\n" u v vol))
    g;
  Buffer.add_string b "}\n";
  Buffer.contents b

let to_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

(* -- parsing ------------------------------------------------------------ *)

exception Parse_error of { line : int; message : string }

type token =
  | Ident of string
  | Arrow
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Equals
  | Semi
  | Comma

(* Tokenizer for the DOT subset: identifiers, quoted strings (returned as
   Ident with their content), punctuation.  Tracks line numbers for
   errors; skips //, # and /* */ comments. *)
let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let line = ref 1 in
  let fail message = raise (Parse_error { line = !line; message }) in
  let i = ref 0 in
  let push t = tokens := (t, !line) :: !tokens in
  while !i < n do
    let c = text.[!i] in
    (match c with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '{' -> push Lbrace; incr i
    | '}' -> push Rbrace; incr i
    | '[' -> push Lbracket; incr i
    | ']' -> push Rbracket; incr i
    | '=' -> push Equals; incr i
    | ';' -> push Semi; incr i
    | ',' -> push Comma; incr i
    | '-' when !i + 1 < n && text.[!i + 1] = '>' ->
        push Arrow;
        i := !i + 2
    | '"' ->
        let b = Buffer.create 16 in
        incr i;
        let closed = ref false in
        while (not !closed) && !i < n do
          (match text.[!i] with
          | '"' -> closed := true
          | '\\' when !i + 1 < n ->
              incr i;
              Buffer.add_char b text.[!i]
          | '\n' ->
              incr line;
              Buffer.add_char b '\n'
          | ch -> Buffer.add_char b ch);
          incr i
        done;
        if not !closed then fail "unterminated string";
        push (Ident (Buffer.contents b))
    | '/' when !i + 1 < n && text.[!i + 1] = '/' ->
        while !i < n && text.[!i] <> '\n' do incr i done
    | '#' -> while !i < n && text.[!i] <> '\n' do incr i done
    | '/' when !i + 1 < n && text.[!i + 1] = '*' ->
        i := !i + 2;
        let closed = ref false in
        while (not !closed) && !i < n do
          if text.[!i] = '\n' then incr line;
          if !i + 1 < n && text.[!i] = '*' && text.[!i + 1] = '/' then begin
            closed := true;
            i := !i + 1
          end;
          incr i
        done;
        if not !closed then fail "unterminated comment"
    | c
      when (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = '.' ->
        let start = !i in
        while
          !i < n
          &&
          let c = text.[!i] in
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
          || c = '_' || c = '.'
        do
          incr i
        done;
        push (Ident (String.sub text start (!i - start)))
    | c -> fail (Printf.sprintf "unexpected character %C" c));
    ()
  done;
  List.rev !tokens

let parse ?(default_volume = 0.) text =
  let tokens = ref (tokenize text) in
  let fail_at line message = raise (Parse_error { line; message }) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let next () =
    match !tokens with
    | [] -> raise (Parse_error { line = 0; message = "unexpected end of input" })
    | t :: rest ->
        tokens := rest;
        t
  in
  let expect what pred =
    let t, line = next () in
    if not (pred t) then fail_at line ("expected " ^ what)
  in
  (* header: [strict] digraph [name] { *)
  (match next () with
  | Ident "strict", _ ->
      expect "digraph" (function Ident "digraph" -> true | _ -> false)
  | Ident "digraph", _ -> ()
  | _, line -> fail_at line "expected 'digraph'");
  (match next () with
  | Lbrace, _ -> ()
  | Ident _, _ ->
      expect "'{'" (function Lbrace -> true | _ -> false)
  | _, line -> fail_at line "expected graph name or '{'");
  let b = Dag.Builder.create () in
  let ids = Hashtbl.create 64 in
  let node_of name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
        let id = Dag.Builder.add_task ~name b in
        Hashtbl.add ids name id;
        id
  in
  (* attribute block: [ key = value (, | ;)? ... ] ; returns the label *)
  let parse_attrs () =
    match peek () with
    | Some (Lbracket, _) ->
        ignore (next ());
        let label = ref None in
        let rec go () =
          match next () with
          | Rbracket, _ -> ()
          | Ident key, line -> (
              expect "'='" (function Equals -> true | _ -> false);
              match next () with
              | Ident value, _ ->
                  if key = "label" then label := Some value;
                  (match peek () with
                  | Some ((Comma | Semi), _) -> ignore (next ())
                  | _ -> ());
                  go ()
              | _, _ -> fail_at line "expected attribute value")
          | _, line -> fail_at line "expected attribute or ']'"
        in
        go ();
        !label
    | _ -> None
  in
  let volume_of_label = function
    | Some l -> (
        match float_of_string_opt l with Some v -> v | None -> default_volume)
    | None -> default_volume
  in
  let rec statements () =
    match next () with
    | Rbrace, _ -> ()
    | Semi, _ -> statements ()
    | Ident ("graph" | "node" | "edge"), _ ->
        (* default-attribute statement: skip its block *)
        ignore (parse_attrs ());
        statements ()
    | Ident name, line -> (
        (* either a node statement or an edge chain *)
        match peek () with
        | Some (Arrow, _) ->
            (* edge chain: a -> b [-> c ...] [attrs] *)
            let rec chain src =
              ignore (next ());
              let dst, _ =
                match next () with
                | Ident d, l -> (d, l)
                | _, l -> fail_at l "expected edge target"
              in
              let continue_chain =
                match peek () with Some (Arrow, _) -> true | _ -> false
              in
              if continue_chain then begin
                let more = chain dst in
                (src, dst) :: more
              end
              else [ (src, dst) ]
            in
            let pairs = chain name in
            let label = parse_attrs () in
            let volume = volume_of_label label in
            if volume < 0. || Float.is_nan volume then
              fail_at line "edge volume is negative or nan";
            if volume = infinity then fail_at line "edge volume is infinite";
            List.iter
              (fun (s, d) ->
                (* bind in source order: argument evaluation order must
                   not decide task numbering *)
                let src = node_of s in
                let dst = node_of d in
                if src = dst then fail_at line ("self edge on " ^ s);
                Dag.Builder.add_edge b ~src ~dst ~volume)
              pairs;
            statements ()
        | Some (Equals, _) ->
            (* top-level graph attribute: key = value *)
            ignore (next ());
            (match next () with
            | Ident _, _ -> ()
            | _, l -> fail_at l "expected attribute value");
            statements ()
        | _ ->
            let label = parse_attrs () in
            (* a node declaration: if this is the first sighting, the
               label (when present) becomes the task name; tasks stay
               keyed by their dot identifier *)
            (if not (Hashtbl.mem ids name) then begin
               let task_name = Option.value label ~default:name in
               let id = Dag.Builder.add_task ~name:task_name b in
               Hashtbl.add ids name id
             end);
            ignore line;
            statements ())
    | _, line -> fail_at line "expected statement or '}'"
  in
  statements ();
  Dag.Builder.build b

let parse_file ?default_volume path =
  let ic = open_in path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  parse ?default_volume text
