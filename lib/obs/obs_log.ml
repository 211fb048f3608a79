type level = Quiet | Warn | Info | Debug

let severity = function Quiet -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let of_env () =
  match Option.map String.lowercase_ascii (Sys.getenv_opt "FTSCHED_LOG") with
  | Some "quiet" -> Quiet
  | Some "warn" -> Warn
  | Some "debug" -> Debug
  | Some "info" | Some _ | None -> Info

let current = Atomic.make (of_env ())
let enabled l = severity l <= severity (Atomic.get current)

let progress s = if enabled Info then Printf.eprintf "  %s\n%!" s

let logf lvl tag fmt =
  if enabled lvl then
    Printf.eprintf ("ftsched: [" ^^ tag ^^ "] " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

let debug fmt = logf Debug "debug" fmt
let info fmt = logf Info "info" fmt
