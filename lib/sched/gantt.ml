let render ?(width = 100) ?(show_comm = false) sched =
  let horizon = Schedule.makespan sched in
  let horizon = if horizon <= 0. then 1. else horizon in
  let platform = Schedule.platform sched in
  let m = Platform.proc_count platform in
  let col time =
    let c = int_of_float (Float.of_int width *. time /. horizon) in
    Flt.clamp ~lo:0. ~hi:(float_of_int (width - 1)) (float_of_int c)
    |> int_of_float
  in
  let buf = Buffer.create 4096 in
  let line label fill =
    Buffer.add_string buf (Printf.sprintf "%-8s|" label);
    Buffer.add_string buf (Bytes.to_string fill);
    Buffer.add_string buf "|\n"
  in
  let blank () = Bytes.make width ' ' in
  let stamp bytes start finish label =
    let c0 = col start and c1 = max (col start) (col finish - 1) in
    for c = c0 to c1 do
      Bytes.set bytes c '='
    done;
    (* centre the label in the block when it fits *)
    let lbl = label in
    let len = String.length lbl in
    if len <= c1 - c0 + 1 then begin
      let at = c0 + (((c1 - c0 + 1) - len) / 2) in
      String.iteri (fun i ch -> Bytes.set bytes (at + i) ch) lbl
    end
  in
  Buffer.add_string buf
    (Printf.sprintf "Gantt: %s (horizon %.2f, 1 column = %.3f time units)\n"
       (Schedule.algorithm sched) horizon (horizon /. float_of_int width));
  for p = 0 to m - 1 do
    let row = blank () in
    List.iter
      (fun (r : Schedule.replica) ->
        stamp row r.Schedule.r_start r.Schedule.r_finish
          (Printf.sprintf "%d.%d" r.Schedule.r_task r.Schedule.r_index))
      (Schedule.on_proc sched p);
    line (Printf.sprintf "P%d" p) row;
    if show_comm then begin
      let snd_row = blank () and rcv_row = blank () in
      List.iter
        (fun (msg : Netstate.message) ->
          if msg.Netstate.m_source.Netstate.s_proc = p then
            stamp snd_row msg.Netstate.m_leg_start msg.Netstate.m_leg_finish
              (Printf.sprintf ">%d" msg.Netstate.m_dst_proc);
          if msg.Netstate.m_dst_proc = p then
            stamp rcv_row
              (msg.Netstate.m_arrival -. msg.Netstate.m_duration)
              msg.Netstate.m_arrival
              (Printf.sprintf "<%d" msg.Netstate.m_source.Netstate.s_proc))
        (Schedule.messages sched);
      line (Printf.sprintf "P%d snd" p) snd_row;
      line (Printf.sprintf "P%d rcv" p) rcv_row
    end
  done;
  Buffer.contents buf

let print ?width ?show_comm sched =
  print_string (render ?width ?show_comm sched)

(* -- SVG rendering ------------------------------------------------------ *)

(* A fixed qualitative palette; tasks cycle through it. *)
let palette =
  [|
    "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#76b7b2"; "#edc948";
    "#b07aa1"; "#ff9da7"; "#9c755f"; "#bab0ac";
  |]

let to_svg sched =
  let width = 900 and row_height = 28 in
  let horizon = Schedule.makespan sched in
  let horizon = if horizon <= 0. then 1. else horizon in
  let platform = Schedule.platform sched in
  let m = Platform.proc_count platform in
  let margin_left = 50 and margin_top = 30 in
  let x time =
    float_of_int margin_left
    +. (time /. horizon *. float_of_int (width - margin_left - 10))
  in
  let row p = margin_top + (p * row_height) in
  let total_h = margin_top + (m * row_height) + 30 in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"sans-serif\" font-size=\"10\">\n"
       width total_h);
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"16\" font-size=\"12\">%s — horizon %.2f</text>\n"
       margin_left (Schedule.algorithm sched) horizon);
  (* processor lanes *)
  for p = 0 to m - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"4\" y=\"%d\">P%d</text>\n<line x1=\"%d\" y1=\"%d\" \
          x2=\"%d\" y2=\"%d\" stroke=\"#ddd\"/>\n"
         (row p + (row_height * 2 / 3))
         p margin_left
         (row p + row_height)
         (width - 10)
         (row p + row_height))
  done;
  (* message legs as lines between rows *)
  List.iter
    (fun (msg : Netstate.message) ->
      let sp = msg.Netstate.m_source.Netstate.s_proc in
      let dp = msg.Netstate.m_dst_proc in
      Buffer.add_string buf
        (Printf.sprintf
           "<line x1=\"%.1f\" y1=\"%d\" x2=\"%.1f\" y2=\"%d\" \
            stroke=\"#999\" stroke-dasharray=\"3,2\" opacity=\"0.6\"/>\n"
           (x msg.Netstate.m_leg_start)
           (row sp + (row_height / 2))
           (x msg.Netstate.m_arrival)
           (row dp + (row_height / 2))))
    (Schedule.messages sched);
  (* replicas as rectangles *)
  List.iter
    (fun (r : Schedule.replica) ->
      let x0 = x r.Schedule.r_start and x1 = x r.Schedule.r_finish in
      let color = palette.(r.Schedule.r_task mod Array.length palette) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" \
            fill=\"%s\" stroke=\"#333\" rx=\"2\"/>\n"
           x0
           (row r.Schedule.r_proc + 3)
           (Float.max 1. (x1 -. x0))
           (row_height - 8) color);
      if x1 -. x0 > 24. then
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%.1f\" y=\"%d\" fill=\"white\">%d.%d</text>\n"
             (x0 +. 3.)
             (row r.Schedule.r_proc + (row_height * 3 / 5))
             r.Schedule.r_task r.Schedule.r_index))
    (Schedule.all_replicas sched);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let svg_to_file path sched =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_svg sched))
