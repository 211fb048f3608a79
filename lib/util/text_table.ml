type align = Left | Right

type t = {
  headers : string array;
  aligns : align array;
  mutable rows : string array list;  (* reversed *)
}

let create ?(aligns = []) headers =
  let headers = Array.of_list headers in
  let n = Array.length headers in
  let aligns_arr = Array.make n Right in
  List.iteri (fun i a -> if i < n then aligns_arr.(i) <- a) aligns;
  { headers; aligns = aligns_arr; rows = [] }

let add_row t cells =
  let row = Array.of_list cells in
  if Array.length row <> Array.length t.headers then
    invalid_arg "Text_table.add_row: arity mismatch";
  t.rows <- row :: t.rows

let float_cell ?(decimals = 2) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" decimals x

let add_float_row t label xs = add_row t (label :: List.map float_cell xs)

let to_string t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.headers in
  let width = Array.make ncols 0 in
  let measure row =
    Array.iteri (fun i c -> width.(i) <- max width.(i) (String.length c)) row
  in
  measure t.headers;
  List.iter measure rows;
  let buf = Buffer.create 1024 in
  let render_row row =
    Array.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        let pad = width.(i) - String.length c in
        match t.aligns.(i) with
        | Left ->
            Buffer.add_string buf c;
            if i < ncols - 1 then Buffer.add_string buf (String.make pad ' ')
        | Right ->
            Buffer.add_string buf (String.make pad ' ');
            Buffer.add_string buf c)
      row;
    Buffer.add_char buf '\n'
  in
  render_row t.headers;
  let rule = Array.map (fun w -> String.make w '-') width in
  render_row rule;
  List.iter render_row rows;
  Buffer.contents buf

let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') c then begin
    let b = Buffer.create (String.length c + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun ch ->
        if ch = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b ch)
      c;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else c

let to_csv t =
  let buf = Buffer.create 1024 in
  let render_row row =
    Array.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (csv_cell c))
      row;
    Buffer.add_char buf '\n'
  in
  render_row t.headers;
  List.iter render_row (List.rev t.rows);
  Buffer.contents buf

let print t = print_string (to_string t)
