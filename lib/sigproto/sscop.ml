type t = {
  mutable vt_s : int;  (* next sequence number to send *)
  mutable vr_r : int;  (* next expected receive sequence number *)
  buffer : bytes Queue.t;  (* sent data frames awaiting ack, oldest first *)
}

let header_bytes = 4

let seq_mask = 0xFFFFFF

let create () = { vt_s = 0; vr_r = 0; buffer = Queue.create () }

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

let frame ~tag ~seq payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.set b 0 tag;
  Bytes.set_uint8 b 1 ((seq lsr 16) land 0xFF);
  Bytes.set_uint16_be b 2 (seq land 0xFFFF);
  Bytes.blit payload 0 b header_bytes n;
  b

let send t payload =
  let f = frame ~tag:'D' ~seq:t.vt_s payload in
  t.vt_s <- (t.vt_s + 1) land seq_mask;
  Queue.push f t.buffer;
  f

let rec trim t ack =
  if (not (Queue.is_empty t.buffer)) && precedes (seq_at (Queue.peek t.buffer) 0) ack
  then begin
    ignore (Queue.pop t.buffer);
    trim t ack
  end

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
      (* Cumulative ack: everything before the carried number is confirmed. *)
      trim t (seq_at buf off);
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

let unacked_count t = Queue.length t.buffer

let unacked t =
  List.of_seq
    (Seq.map
       (fun f -> (seq_at f 0, Bytes.sub f header_bytes (Bytes.length f - header_bytes)))
       (Queue.to_seq t.buffer))

let retransmit t = List.of_seq (Seq.map Bytes.copy (Queue.to_seq t.buffer))

let parse buf =
  if Bytes.length buf < header_bytes then
    Error (Printf.sprintf "frame too short (%d bytes)" (Bytes.length buf))
  else
    Ok
      ( Bytes.get buf 0,
        seq_at buf 0,
        Bytes.sub buf header_bytes (Bytes.length buf - header_bytes) )
