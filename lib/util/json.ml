type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* -- printing ---------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* An integral float below 1e15 prints with a fractional marker, so the
   parser reads a float back.  So does a float whose [%.12g] text reads
   back as one: [12345678901234.5] prints as [12345678901200.0], the
   text its read-back value prints as. *)
let float_repr f =
  let integral x = Float.is_integer x && Float.abs x < 1e15 in
  if integral f then Printf.sprintf "%.1f" f
  else
    let g = Printf.sprintf "%.12g" f in
    let back = float_of_string g in
    if integral back then Printf.sprintf "%.1f" back else g

let to_string ?indent v =
  let buf = Buffer.create 256 in
  let nl level =
    match indent with
    | None -> ()
    | Some w ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (w * level) ' ')
  in
  let sep () = match indent with None -> () | Some _ -> Buffer.add_char buf ' ' in
  let rec go level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
        if Float.is_finite f then Buffer.add_string buf (float_repr f)
        else Buffer.add_string buf "null"
    | String s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            nl (level + 1);
            go (level + 1) item)
          items;
        nl level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            nl (level + 1);
            escape_string buf k;
            Buffer.add_char buf ':';
            sep ();
            go (level + 1) item)
          fields;
        nl level;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string ~indent:2 v)

(* -- parsing ----------------------------------------------------------- *)

exception Error of int * string

let parse_exn_raw s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'
               | '\\' -> Buffer.add_char buf '\\'
               | '/' -> Buffer.add_char buf '/'
               | 'b' -> Buffer.add_char buf '\b'
               | 'f' -> Buffer.add_char buf '\012'
               | 'n' -> Buffer.add_char buf '\n'
               | 'r' -> Buffer.add_char buf '\r'
               | 't' -> Buffer.add_char buf '\t'
               | 'u' ->
                   if !pos + 4 >= n then fail "truncated \\u escape";
                   let hex = String.sub s (!pos + 1) 4 in
                   let code =
                     try int_of_string ("0x" ^ hex)
                     with _ -> fail "bad \\u escape"
                   in
                   (* encode the code point as UTF-8 (BMP only) *)
                   if code < 0x80 then Buffer.add_char buf (Char.chr code)
                   else if code < 0x800 then begin
                     Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end
                   else begin
                     Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                     Buffer.add_char buf
                       (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                     Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                   end;
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let digits () =
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if text = "" || text = "-" then fail "expected number"
    else if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad float"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* integer wider than 63 bits: degrade to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value () :: !items;
                go ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          go ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          let rec go () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields := field () :: !fields;
                go ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn_raw s with
  | v -> Ok v
  | exception Error (pos, msg) ->
      Result.Error (Printf.sprintf "JSON parse error at byte %d: %s" pos msg)

let parse_exn s =
  match parse s with Ok v -> v | Result.Error msg -> failwith msg

(* -- accessors --------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_list = function List items -> items | _ -> []
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
