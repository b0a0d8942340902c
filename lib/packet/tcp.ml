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

let flag_urg = 0x20

let has_flag h f = h.flags land f <> 0

type error = [ `Too_short of int | `Bad_checksum | `Bad_field of string ]

let pp_error ppf = function
  | `Too_short n -> Format.fprintf ppf "segment too short (%d bytes)" n
  | `Bad_checksum -> Format.fprintf ppf "bad TCP checksum"
  | `Bad_field f -> Format.fprintf ppf "bad field: %s" f

let get16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let set16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set buf (off + 1) (Char.chr (v land 0xFF))

(* Sequence numbers travel as immediate ints in [0, 2^32): read and
   written as two 16-bit halves, never through a boxed [int32]. *)
let get32 buf off = (get16 buf off lsl 16) lor get16 buf (off + 2)

let set32 buf off v =
  set16 buf off (v lsr 16);
  set16 buf (off + 2) v

let parse buf off len =
  if len < header_bytes then Error (`Too_short len)
  else begin
    let data_offset = Char.code (Bytes.get buf (off + 12)) lsr 4 in
    if data_offset < 5 then Error (`Bad_field "data_offset < 5")
    else if len < data_offset * 4 then Error (`Too_short len)
    else
      Ok
        ( {
            src_port = get16 buf off;
            dst_port = get16 buf (off + 2);
            seq = get32 buf (off + 4);
            ack = get32 buf (off + 8);
            data_offset;
            flags = Char.code (Bytes.get buf (off + 13)) land 0x3F;
            window = get16 buf (off + 14);
            urgent = get16 buf (off + 18);
          },
          off + (data_offset * 4) )
  end

(* Cursor accessors: field reads straight off the wire bytes, for hot
   paths that would otherwise materialise a [header] record per segment.
   No bounds or sanity checks — callers must have validated the header
   with [check_at] (the three checks [parse] performs) first. *)

let src_port_at buf off = get16 buf off

let dst_port_at buf off = get16 buf (off + 2)

let seq_at buf off = get32 buf (off + 4)

let ack_at buf off = get32 buf (off + 8)

let data_offset_at buf off = Char.code (Bytes.get buf (off + 12)) lsr 4

let flags_at buf off = Char.code (Bytes.get buf (off + 13)) land 0x3F

let window_at buf off = get16 buf (off + 14)

let urgent_at buf off = get16 buf (off + 18)

let check_at buf off len =
  if len < header_bytes then -1
  else begin
    let hdr_len = 4 * data_offset_at buf off in
    if hdr_len < header_bytes || hdr_len > len then -1 else hdr_len
  end

let write ~src_port ~dst_port ~seq ~ack ~data_offset ~flags ~window ~urgent buf
    off =
  set16 buf off src_port;
  set16 buf (off + 2) dst_port;
  set32 buf (off + 4) seq;
  set32 buf (off + 8) ack;
  Bytes.set buf (off + 12) (Char.chr ((data_offset land 0xF) lsl 4));
  Bytes.set buf (off + 13) (Char.chr (flags land 0x3F));
  set16 buf (off + 14) window;
  set16 buf (off + 16) 0;
  set16 buf (off + 18) urgent

let build h buf off =
  set16 buf off h.src_port;
  set16 buf (off + 2) h.dst_port;
  set32 buf (off + 4) h.seq;
  set32 buf (off + 8) h.ack;
  Bytes.set buf (off + 12) (Char.chr ((h.data_offset land 0xF) lsl 4));
  Bytes.set buf (off + 13) (Char.chr (h.flags land 0x3F));
  set16 buf (off + 14) h.window;
  set16 buf (off + 16) 0;
  set16 buf (off + 18) h.urgent

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
  set16 buf (off + 16) 0;
  set16 buf (off + 16) (chain_checksum ~src ~dst m)

let store_checksum ~src ~dst buf off len =
  set16 buf (off + 16) 0;
  let c = checksum ~src ~dst buf off len in
  set16 buf (off + 16) c

(* RFC 793 modular arithmetic on sequence numbers held as ints in
   [0, 2^32): the signed 32-bit distance, sign-extended by hand. *)
let seq_diff a b = ((a - b + 0x8000_0000) land 0xFFFF_FFFF) - 0x8000_0000

let seq_lt a b = seq_diff a b < 0

let seq_leq a b = seq_diff a b <= 0

let seq_add a n = (a + n) land 0xFFFF_FFFF
