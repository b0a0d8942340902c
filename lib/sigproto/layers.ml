module Core = Ldlp_core
module Mbuf = Ldlp_buf.Mbuf

type body =
  | Raw of Mbuf.t
  | Frame of int * Mbuf.t
  | Signalling of int * Mbuf.t
  | Sdu of int * bytes

type item = body

let frame ~pool ~port payload =
  if port < 0 || port > 0xFF then invalid_arg "Layers.frame: bad port";
  let b = Bytes.create (1 + Bytes.length payload) in
  Bytes.set b 0 (Char.chr port);
  Bytes.blit payload 0 b 1 (Bytes.length payload);
  Mbuf.of_bytes pool b

let encode_tx ~sscop_for ~port msg = (port, Sscop.send (sscop_for port) (Sigmsg.encode msg))

type stack = {
  layers : item Core.Layer.t list;
  sscop_for : int -> Sscop.t;
  switch : Switch.t;
}

(* Footprints: rough code sizes of each layer's OCaml implementation, for
   the blocking analysis.  What matters is that together they exceed a
   small primary I-cache, as signalling stacks do. *)
let fp_link = Core.Layer.footprint ~code_bytes:1500 ~data_bytes:128 ()

let fp_sscop = Core.Layer.footprint ~code_bytes:4000 ~data_bytes:512 ()

let fp_q93b = Core.Layer.footprint ~code_bytes:5000 ~data_bytes:256 ()

let fp_call = Core.Layer.footprint ~code_bytes:9000 ~data_bytes:2048 ()

(* Hand [msg] up in place: the next layer's view of it replaces the
   payload, and the static [up_only] list carries it. *)
let pass (msg : item Core.Msg.t) body size =
  msg.Core.Msg.payload <- body;
  msg.Core.Msg.size <- size;
  Core.Layer.up_only

(* Readers of an [n]-byte mbuf chain: in place when its head segment
   holds all [n] bytes, as every signalling frame's does, else from a
   linearised copy. *)
let sscop_input s m n =
  if Mbuf.contiguous m n then Sscop.input s (Mbuf.seg_data m) (Mbuf.seg_off m) n
  else Sscop.input s (Mbuf.to_bytes m) 0 n

let check m n =
  if Mbuf.contiguous m n then Sigmsg.check_at (Mbuf.seg_data m) (Mbuf.seg_off m) n
  else Sigmsg.check_at (Mbuf.to_bytes m) 0 n

let input switch ~port m n =
  if Mbuf.contiguous m n then
    Switch.input switch ~port (Mbuf.seg_data m) (Mbuf.seg_off m)
  else Switch.input switch ~port (Mbuf.to_bytes m) 0

(* Replies [i] to [n - 1] of the switch's outbox, each written straight
   into the frame its port's transmitter keeps for retransmission, as
   [Send_down] actions in reply order. *)
let rec replies_down msg switch sscop_for i n =
  if i = n then []
  else begin
    let port = Switch.reply_port switch i in
    let f = Sscop.reserve (sscop_for port) (Switch.reply_length switch i) in
    Switch.write_reply switch i f Sscop.header_bytes;
    let reply =
      Core.Layer.Send_down
        (Core.Msg.with_payload msg (Sdu (port, f)) ~size:(Bytes.length f))
    in
    reply :: replies_down msg switch sscop_for (i + 1) n
  end

let stack ~pool ~switch () =
  (* One SSCOP state per one-byte port tag, made on first use. *)
  let sscops = Array.make 256 None in
  let sscop_for port =
    if port < 0 || port > 0xFF then invalid_arg "Layers.sscop_for: bad port";
    match sscops.(port) with
    | Some s -> s
    | None ->
      let s = Sscop.create () in
      sscops.(port) <- Some s;
      s
  in
  let link =
    Core.Layer.v ~name:"link" ~fp:fp_link (fun msg ->
        match msg.Core.Msg.payload with
        | Raw m when Mbuf.length m >= 1 ->
          let port = Mbuf.get_byte m 0 in
          Mbuf.adj m 1;
          pass msg (Frame (port, m)) (Mbuf.length m)
        | Raw m ->
          Mbuf.free pool m;
          Core.Layer.consume_only
        | _ -> Core.Layer.up_only)
  in
  let sscop_layer =
    Core.Layer.v ~name:"sscop" ~fp:fp_sscop (fun msg ->
        match msg.Core.Msg.payload with
        | Frame (port, m) -> (
          let s = sscop_for port in
          let n = Mbuf.length m in
          match sscop_input s m n with
          | Sscop.Delivered ->
            Mbuf.adj m Sscop.header_bytes;
            msg.Core.Msg.payload <- Signalling (port, m);
            msg.Core.Msg.size <- n - Sscop.header_bytes;
            [
              Core.Layer.Up;
              Core.Layer.Send_down
                (Core.Msg.with_payload msg (Sdu (port, Sscop.make_ack s)) ~size:4);
            ]
          | Sscop.Acked | Sscop.Unexpected | Sscop.Invalid ->
            Mbuf.free pool m;
            Core.Layer.consume_only)
        | _ -> Core.Layer.up_only)
  in
  let q93b =
    Core.Layer.v ~name:"q93b" ~fp:fp_q93b (fun msg ->
        match msg.Core.Msg.payload with
        | Signalling (_, m) ->
          let ie_len = check m (Mbuf.length m) in
          if ie_len >= 0 then begin
            msg.Core.Msg.size <- Sigmsg.header_bytes + ie_len;
            Core.Layer.up_only
          end
          else begin
            Mbuf.free pool m;
            Core.Layer.consume_only
          end
        | _ -> Core.Layer.up_only)
  in
  let call =
    Core.Layer.v ~name:"call" ~fp:fp_call (fun msg ->
        match msg.Core.Msg.payload with
        | Signalling (port, m) ->
          let n = input switch ~port m (Mbuf.length m) in
          let actions =
            if n = 0 then Core.Layer.up_only
            else Core.Layer.Up :: replies_down msg switch sscop_for 0 n
          in
          Mbuf.free pool m;
          actions
        | _ -> Core.Layer.consume_only)
  in
  { layers = [ link; sscop_layer; q93b; call ]; sscop_for; switch }
