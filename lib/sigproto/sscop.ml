(* Sent data frames awaiting ack form a ring: [count] frames from slot
   [head], oldest first, in an array whose length is a power of two (or
   0 before the first send).  A slot outside the ring holds
   [Bytes.empty], so a trimmed frame is garbage at once. *)
type t = {
  mutable vt_s : int;  (* next sequence number to send *)
  mutable vr_r : int;  (* next expected receive sequence number *)
  mutable ring : bytes array;
  mutable head : int;
  mutable count : int;
}

let header_bytes = 4

let seq_mask = 0xFFFFFF

let create () = { vt_s = 0; vr_r = 0; ring = [||]; head = 0; count = 0 }

(* Frame [i] of the ring, from the oldest. *)
let nth t i = t.ring.((t.head + i) land (Array.length t.ring - 1))

(* Append a frame.  When the ring is full it doubles (from 8), unrolled
   from the oldest frame to slot 0. *)
let push t f =
  let n = Array.length t.ring in
  if t.count = n then begin
    let ring = Array.make (Int.max 8 (2 * n)) Bytes.empty in
    for i = 0 to t.count - 1 do
      ring.(i) <- nth t i
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  t.ring.((t.head + t.count) land (Array.length t.ring - 1)) <- f;
  t.count <- t.count + 1

type received =
  | Deliver of bytes
  | Out_of_order of int
  | Ack_processed of int
  | Malformed of string

type verdict = Delivered | Acked | Unexpected | Invalid

let seq_at buf off =
  (Bytes.get_uint8 buf (off + 1) lsl 16) lor Bytes.get_uint16_be buf (off + 2)

(* Serial-number order on the 24-bit sequence space: [s] precedes [ack]
   when [ack] lies less than half the space ahead of it.  A plain [s < ack]
   stops trimming once the numbers wrap past 2^24 - 1. *)
let precedes s ack =
  let d = (ack - s) land seq_mask in
  d <> 0 && d <= seq_mask lsr 1

(* A frame with its header written and [n] bytes of payload to fill in. *)
let blank ~tag ~seq n =
  let b = Bytes.create (header_bytes + n) in
  Bytes.set b 0 tag;
  Bytes.set_uint8 b 1 ((seq lsr 16) land 0xFF);
  Bytes.set_uint16_be b 2 (seq land 0xFFFF);
  b

let frame ~tag ~seq payload =
  let n = Bytes.length payload in
  let b = blank ~tag ~seq n in
  Bytes.blit payload 0 b header_bytes n;
  b

let reserve t n =
  let f = blank ~tag:'D' ~seq:t.vt_s n in
  t.vt_s <- (t.vt_s + 1) land seq_mask;
  push t f;
  f

let send t payload =
  let n = Bytes.length payload in
  let f = reserve t n in
  Bytes.blit payload 0 f header_bytes n;
  f

let rec trim t ack =
  if t.count > 0 && precedes (seq_at t.ring.(t.head) 0) ack then begin
    t.ring.(t.head) <- Bytes.empty;
    t.head <- (t.head + 1) land (Array.length t.ring - 1);
    t.count <- t.count - 1;
    trim t ack
  end

(* Cumulative ack: everything before the carried number is confirmed. *)
let acknowledge t buf off = trim t (seq_at buf off)

let input t buf off len =
  if len < header_bytes then Invalid
  else
    match Bytes.get buf off with
    | 'D' ->
      if seq_at buf off = t.vr_r then begin
        t.vr_r <- (t.vr_r + 1) land seq_mask;
        Delivered
      end
      else Unexpected
    | 'A' ->
      acknowledge t buf off;
      Acked
    | _ -> Invalid

let on_receive t buf =
  let len = Bytes.length buf in
  match input t buf 0 len with
  | Delivered -> Deliver (Bytes.sub buf header_bytes (len - header_bytes))
  | Acked -> Ack_processed (seq_at buf 0)
  | Unexpected -> Out_of_order (seq_at buf 0)
  | Invalid ->
    Malformed
      (if len < header_bytes then Printf.sprintf "frame too short (%d bytes)" len
       else Printf.sprintf "unknown frame tag %C" (Bytes.get buf 0))

let make_ack t = frame ~tag:'A' ~seq:t.vr_r Bytes.empty

let next_send_seq t = t.vt_s

let next_expected_seq t = t.vr_r

let unacked_count t = t.count

let unacked t =
  List.init t.count (fun i ->
      let f = nth t i in
      (seq_at f 0, Bytes.sub f header_bytes (Bytes.length f - header_bytes)))

let retransmit t i =
  if i < 0 || i >= t.count then invalid_arg "Sscop.retransmit: no such frame";
  Bytes.copy (nth t i)
