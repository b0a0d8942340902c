type t = {
  name : string;
  mutable calls : int;
  mutable total_ns : int;
  mutable minor_words : int;
}

let create name = { name; calls = 0; total_ns = 0; minor_words = 0 }

let name t = t.name

let calls t = t.calls

let total_ns t = t.total_ns

let minor_words t = t.minor_words

let time t f =
  if not (Obs.enabled ()) then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let dt = Unix.gettimeofday () -. t0 in
        let dw = Gc.minor_words () -. w0 in
        t.calls <- t.calls + 1;
        t.total_ns <- t.total_ns + int_of_float (dt *. 1e9);
        t.minor_words <- t.minor_words + int_of_float dw)
      f
  end

let merge_into ~dst src =
  if dst.name <> src.name then invalid_arg "Span.merge_into: name mismatch";
  dst.calls <- dst.calls + src.calls;
  dst.total_ns <- dst.total_ns + src.total_ns;
  dst.minor_words <- dst.minor_words + src.minor_words

let summary t =
  Printf.sprintf "%s: calls=%d total=%.3f ms minor-words=%d" t.name t.calls
    (float_of_int t.total_ns /. 1e6)
    t.minor_words
