type header = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack : int;
  data_offset : int;
  flags : int;
  window : int;
  urgent : int;
}

let header_bytes = 20

let flag_fin = 0x01

let flag_syn = 0x02

let flag_rst = 0x04

let flag_psh = 0x08

let flag_ack = 0x10

let has_flag h f = h.flags land f <> 0

type error = [ `Too_short of int | `Bad_checksum | `Bad_field of string ]

(* Sequence numbers travel as immediate ints in [0, 2^32): read and
   written as two 16-bit halves, never through a boxed [int32]. *)
let get32 buf off =
  (Bytes.get_uint16_be buf off lsl 16) lor Bytes.get_uint16_be buf (off + 2)

let set32 buf off v =
  Bytes.set_uint16_be buf off ((v lsr 16) land 0xFFFF);
  Bytes.set_uint16_be buf (off + 2) (v land 0xFFFF)

let parse buf off len =
  if len < header_bytes then Error (`Too_short len)
  else begin
    let data_offset = Bytes.get_uint8 buf (off + 12) lsr 4 in
    if data_offset < 5 then Error (`Bad_field "data_offset < 5")
    else if len < data_offset * 4 then Error (`Too_short len)
    else
      Ok
        ( {
            src_port = Bytes.get_uint16_be buf off;
            dst_port = Bytes.get_uint16_be buf (off + 2);
            seq = get32 buf (off + 4);
            ack = get32 buf (off + 8);
            data_offset;
            flags = Bytes.get_uint8 buf (off + 13) land 0x3F;
            window = Bytes.get_uint16_be buf (off + 14);
            urgent = Bytes.get_uint16_be buf (off + 18);
          },
          off + (data_offset * 4) )
  end

(* Cursor accessors: field reads straight off the wire bytes, for hot
   paths that would otherwise materialise a [header] record per segment.
   No bounds or sanity checks — callers must have validated the header
   with [check_at] (the three checks [parse] performs) first. *)

let src_port_at buf off = Bytes.get_uint16_be buf off

let dst_port_at buf off = Bytes.get_uint16_be buf (off + 2)

let seq_at buf off = get32 buf (off + 4)

let ack_at buf off = get32 buf (off + 8)

let data_offset_at buf off = Bytes.get_uint8 buf (off + 12) lsr 4

let flags_at buf off = Bytes.get_uint8 buf (off + 13) land 0x3F

let window_at buf off = Bytes.get_uint16_be buf (off + 14)

let urgent_at buf off = Bytes.get_uint16_be buf (off + 18)

let check_at buf off len =
  if len < header_bytes then -1
  else begin
    let hdr_len = 4 * data_offset_at buf off in
    if hdr_len < header_bytes || hdr_len > len then -1 else hdr_len
  end

let write ~src_port ~dst_port ~seq ~ack ~data_offset ~flags ~window ~urgent buf
    off =
  Bytes.set_uint16_be buf off (src_port land 0xFFFF);
  Bytes.set_uint16_be buf (off + 2) (dst_port land 0xFFFF);
  set32 buf (off + 4) seq;
  set32 buf (off + 8) ack;
  Bytes.set_uint8 buf (off + 12) ((data_offset land 0xF) lsl 4);
  Bytes.set_uint8 buf (off + 13) (flags land 0x3F);
  Bytes.set_uint16_be buf (off + 14) (window land 0xFFFF);
  Bytes.set_uint16_be buf (off + 16) 0;
  Bytes.set_uint16_be buf (off + 18) (urgent land 0xFFFF)

let build h buf off =
  write ~src_port:h.src_port ~dst_port:h.dst_port ~seq:h.seq ~ack:h.ack
    ~data_offset:h.data_offset ~flags:h.flags ~window:h.window ~urgent:h.urgent
    buf off

let checksum ~src ~dst buf off len =
  let pseudo = Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.proto_tcp ~len in
  Cksum.finish (pseudo + Cksum.partial buf off len)

(* The checksum of the segment held in a chain, pseudo-header included:
   [simple_chain] complements its sum, so undo that to combine the two
   raw sums. *)
let chain_checksum ~src ~dst m =
  let len = Ldlp_buf.Mbuf.length m in
  let pseudo = Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.proto_tcp ~len in
  Cksum.finish (pseudo + (lnot (Cksum.simple_chain m) land 0xFFFF))

let verify_checksum ~src ~dst m = chain_checksum ~src ~dst m = 0

let store_chain_checksum ~src ~dst m =
  let buf = Ldlp_buf.Mbuf.seg_data m and off = Ldlp_buf.Mbuf.seg_off m in
  Bytes.set_uint16_be buf (off + 16) 0;
  Bytes.set_uint16_be buf (off + 16) (chain_checksum ~src ~dst m)

let store_checksum ~src ~dst buf off len =
  Bytes.set_uint16_be buf (off + 16) 0;
  let c = checksum ~src ~dst buf off len in
  Bytes.set_uint16_be buf (off + 16) c

(* RFC 793 modular arithmetic on sequence numbers held as ints in
   [0, 2^32): the signed 32-bit distance, sign-extended by hand. *)
let seq_diff a b = ((a - b + 0x8000_0000) land 0xFFFF_FFFF) - 0x8000_0000

let seq_lt a b = seq_diff a b < 0

let seq_leq a b = seq_diff a b <= 0

let seq_add a n = (a + n) land 0xFFFF_FFFF
