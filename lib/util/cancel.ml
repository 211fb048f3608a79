type token = {
  flag : bool Atomic.t option; (* None: the never token *)
  t_deadline : float; (* infinity: none *)
}

exception Cancelled

let never = { flag = None; t_deadline = infinity }
let create () = { flag = Some (Atomic.make false); t_deadline = infinity }

let with_deadline t =
  { flag = Some (Atomic.make false); t_deadline = t }

let cancel t = match t.flag with None -> () | Some f -> Atomic.set f true

let cancelled t =
  match t.flag with
  | None -> false
  | Some f ->
      Atomic.get f
      || (t.t_deadline < infinity
          &&
          if Unix.gettimeofday () > t.t_deadline then begin
            (* latch, so later polls skip the clock read *)
            Atomic.set f true;
            true
          end
          else false)

let check t = if cancelled t then raise Cancelled
