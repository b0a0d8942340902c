module Core = Ldlp_core
module Mbuf = Ldlp_buf.Mbuf

type body =
  | Raw of Mbuf.t
  | Frame of int * Mbuf.t
  | Signalling of int * Mbuf.t
  | Decoded of int * Sigmsg.t
  | Sdu of int * bytes

type item = body

let frame ~pool ~port payload =
  if port < 0 || port > 0xFF then invalid_arg "Layers.frame: bad port";
  let b = Bytes.create (1 + Bytes.length payload) in
  Bytes.set b 0 (Char.chr port);
  Bytes.blit payload 0 b 1 (Bytes.length payload);
  Mbuf.of_bytes pool b

let transmit ~sscop_for ~port msg = Sscop.send (sscop_for port) (Sigmsg.encode msg)

let encode_tx ~sscop_for ~port msg = (port, transmit ~sscop_for ~port msg)

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

let decode m n =
  if Mbuf.contiguous m n then Sigmsg.decode_sub (Mbuf.seg_data m) (Mbuf.seg_off m) n
  else Sigmsg.decode (Mbuf.to_bytes m)

(* The switch's replies, framed by the per-port transmitters, as
   [Send_down] actions in reply order. *)
let rec replies_down msg sscop_for = function
  | [] -> []
  | (port, reply) :: rest ->
    let f = transmit ~sscop_for ~port reply in
    Core.Layer.Send_down
      (Core.Msg.with_payload msg (Sdu (port, f)) ~size:(Bytes.length f))
    :: replies_down msg sscop_for rest

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
        | Signalling (port, m) -> (
          let decoded = decode m (Mbuf.length m) in
          Mbuf.free pool m;
          match decoded with
          | Ok d -> pass msg (Decoded (port, d)) (Sigmsg.encoded_length d)
          | Error _ -> Core.Layer.consume_only)
        | _ -> Core.Layer.up_only)
  in
  let call =
    Core.Layer.v ~name:"call" ~fp:fp_call (fun msg ->
        match msg.Core.Msg.payload with
        | Decoded (port, m) ->
          Core.Layer.Up
          :: replies_down msg sscop_for (Switch.handle switch ~port m)
        | _ -> Core.Layer.consume_only)
  in
  { layers = [ link; sscop_layer; q93b; call ]; sscop_for; switch }
