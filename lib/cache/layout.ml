type region = { base : int; len : int }

type strategy =
  | Random of Ldlp_sim.Rng.t
  | Sequential of { gap_bytes : int; mutable cursor : int }

type t = { line_bytes : int; strategy : strategy }

(* The address space random placement draws from. *)
let space_bytes = 256 * 1024 * 1024

let random ~rng ~line_bytes () = { line_bytes; strategy = Random rng }

let sequential ~line_bytes ?(gap_bytes = 0) () =
  { line_bytes; strategy = Sequential { gap_bytes; cursor = 0 } }

let round_up_line t n =
  let lb = t.line_bytes in
  (n + lb - 1) / lb * lb

let alloc t len =
  if len < 0 then invalid_arg "Layout.alloc: negative length";
  let len = max t.line_bytes (round_up_line t len) in
  match t.strategy with
  | Random rng ->
    let lines_in_space = space_bytes / t.line_bytes in
    let lines_needed = len / t.line_bytes in
    let max_start = max 1 (lines_in_space - lines_needed) in
    let base = Ldlp_sim.Rng.int rng max_start * t.line_bytes in
    { base; len }
  | Sequential s ->
    let base = s.cursor in
    s.cursor <- base + len + round_up_line t s.gap_bytes;
    { base; len }

let contains r addr = addr >= r.base && addr < r.base + r.len
