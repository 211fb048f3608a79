type t = {
  fd : Unix.file_descr;
  buf : Buffer.t; (* bytes read past the last complete line *)
}

let connect ~path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Ok { fd; buf = Buffer.create 4096 }
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "connect %s: %s" path (Unix.error_message e))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n do
    let w = Unix.write_substring fd s !pos (n - !pos) in
    pos := !pos + w
  done

(* Read until the pending buffer holds one newline; return the line and
   keep the rest for the next call. *)
let read_line t =
  let chunk = Bytes.create 65536 in
  let rec take () =
    let s = Buffer.contents t.buf in
    match String.index_opt s '\n' with
    | Some nl ->
        Buffer.clear t.buf;
        Buffer.add_substring t.buf s (nl + 1) (String.length s - nl - 1);
        Ok (String.sub s 0 nl)
    | None -> (
        match Unix.read t.fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> take ()
        | exception Unix.Unix_error (e, _, _) ->
            Error ("read: " ^ Unix.error_message e)
        | 0 -> Error "connection closed by daemon"
        | n ->
            Buffer.add_subbytes t.buf chunk 0 n;
            take ())
  in
  take ()

(* One frame out, one response line in.  [Error] is a transport or framing
   failure (daemon gone, non-protocol bytes); protocol-level errors arrive
   as [Ok] responses with [rs_ok = false]. *)
let request t rq =
  match write_all t.fd (Serve_protocol.request_to_string rq ^ "\n") with
  | exception Unix.Unix_error (e, _, _) ->
      Error ("write: " ^ Unix.error_message e)
  | () -> (
      match read_line t with
      | Error _ as e -> e
      | Ok line -> Serve_protocol.parse_response line)

type policy = {
  max_attempts : int;
  base_delay_s : float;
  max_delay_s : float;
}

let default_policy = { max_attempts = 5; base_delay_s = 0.05; max_delay_s = 1.0 }

let request_with_retry ?(policy = default_policy) ~rng ~path rq =
  let backoff attempt =
    let step =
      Float.min policy.max_delay_s
        (policy.base_delay_s *. Float.pow 2. (float_of_int attempt))
    in
    (* full jitter on the upper half: deterministic given the seed *)
    let delay = step *. (0.5 +. Rng.float rng 0.5) in
    if delay > 0. then Unix.sleepf delay
  in
  let attempt_once () =
    match connect ~path with
    | Error e -> Error (`Retry e)
    | Ok conn ->
        Fun.protect
          ~finally:(fun () -> close conn)
          (fun () ->
            match request conn rq with
            | Error e ->
                (* daemon vanished mid-exchange: retryable *)
                Error (`Retry e)
            | Ok rs -> (
                match rs.Serve_protocol.rs_error with
                | Some (cls, msg) when Serve_protocol.retryable cls ->
                    Error
                      (`Retry
                         (Serve_protocol.class_name cls ^ ": " ^ msg))
                | _ -> Ok rs))
  in
  let rec go attempt last_err =
    if attempt >= policy.max_attempts then
      Error
        (Printf.sprintf "gave up after %d attempts (last: %s)"
           policy.max_attempts last_err)
    else begin
      if attempt > 0 then backoff (attempt - 1);
      match attempt_once () with
      | Ok rs -> Ok rs
      | Error (`Retry e) -> go (attempt + 1) e
    end
  in
  go 0 "never attempted"
