type header = {
  ihl : int;
  tos : int;
  total_length : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;
  ttl : int;
  protocol : int;
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
}

let header_bytes = 20

let proto_tcp = 6

let proto_udp = 17

type error =
  [ `Too_short of int
  | `Bad_version of int
  | `Bad_checksum
  | `Bad_field of string ]

let parse buf off len =
  if len < header_bytes then Error (`Too_short len)
  else begin
    let b0 = Bytes.get_uint8 buf off in
    let version = b0 lsr 4 and ihl = b0 land 0xF in
    if version <> 4 then Error (`Bad_version version)
    else if ihl < 5 then Error (`Bad_field "ihl < 5")
    else if len < ihl * 4 then Error (`Too_short len)
    else begin
      let total_length = Bytes.get_uint16_be buf (off + 2) in
      if total_length < ihl * 4 then Error (`Bad_field "total_length < header")
      else if Cksum.simple buf off (ihl * 4) <> 0 then
        Error `Bad_checksum
      else begin
        let frag = Bytes.get_uint16_be buf (off + 6) in
        Ok
          ( {
              ihl;
              tos = Bytes.get_uint8 buf (off + 1);
              total_length;
              ident = Bytes.get_uint16_be buf (off + 4);
              dont_fragment = frag land 0x4000 <> 0;
              more_fragments = frag land 0x2000 <> 0;
              fragment_offset = frag land 0x1FFF;
              ttl = Bytes.get_uint8 buf (off + 8);
              protocol = Bytes.get_uint8 buf (off + 9);
              src = Addr.Ipv4.of_bytes buf (off + 12);
              dst = Addr.Ipv4.of_bytes buf (off + 16);
            },
            off + (ihl * 4) )
      end
    end
  end

let is_fragment h = h.more_fragments || h.fragment_offset > 0

(* Cursor accessors: unvalidated field reads off the wire bytes — call
   [check_at] (same checks as [parse]) before trusting any of them. *)

let ihl_at buf off = Bytes.get_uint8 buf off land 0xF

let tos_at buf off = Bytes.get_uint8 buf (off + 1)

let total_length_at buf off = Bytes.get_uint16_be buf (off + 2)

let ident_at buf off = Bytes.get_uint16_be buf (off + 4)

let frag_at buf off = Bytes.get_uint16_be buf (off + 6)

let ttl_at buf off = Bytes.get_uint8 buf (off + 8)

let protocol_at buf off = Bytes.get_uint8 buf (off + 9)

let src_at buf off = Addr.Ipv4.of_bytes buf (off + 12)

let dst_at buf off = Addr.Ipv4.of_bytes buf (off + 16)

let dst_equal addr buf off = Addr.Ipv4.equal_at addr buf (off + 16)

(* An int, not a [result]: the receive fast path runs this per datagram,
   and an [Ok] would be a heap block each time. *)
let check_at buf off len =
  if len < header_bytes then -1
  else begin
    let b0 = Bytes.get_uint8 buf off in
    let ihl = b0 land 0xF in
    if
      b0 lsr 4 <> 4
      || ihl < 5
      || len < ihl * 4
      || total_length_at buf off < ihl * 4
      || Cksum.simple buf off (ihl * 4) <> 0
    then -1
    else ihl * 4
  end

let write ~tos ~total_length ~ident ~dont_fragment ~more_fragments
    ~fragment_offset ~ttl ~protocol ~src ~dst buf off =
  Bytes.set_uint8 buf off ((4 lsl 4) lor 5);
  Bytes.set_uint8 buf (off + 1) (tos land 0xFF);
  Bytes.set_uint16_be buf (off + 2) (total_length land 0xFFFF);
  Bytes.set_uint16_be buf (off + 4) (ident land 0xFFFF);
  let frag =
    (if dont_fragment then 0x4000 else 0)
    lor (if more_fragments then 0x2000 else 0)
    lor (fragment_offset land 0x1FFF)
  in
  Bytes.set_uint16_be buf (off + 6) frag;
  Bytes.set_uint8 buf (off + 8) (ttl land 0xFF);
  Bytes.set_uint8 buf (off + 9) (protocol land 0xFF);
  Bytes.set_uint16_be buf (off + 10) 0;
  Addr.Ipv4.write src buf (off + 12);
  Addr.Ipv4.write dst buf (off + 16);
  Bytes.set_uint16_be buf (off + 10) (Cksum.simple buf off header_bytes)

let build h buf off =
  write ~tos:h.tos ~total_length:h.total_length ~ident:h.ident
    ~dont_fragment:h.dont_fragment ~more_fragments:h.more_fragments
    ~fragment_offset:h.fragment_offset ~ttl:h.ttl ~protocol:h.protocol
    ~src:h.src ~dst:h.dst buf off

let strip m =
  let len = Ldlp_buf.Mbuf.length m in
  if len < header_bytes then Error (`Too_short len)
  else begin
    let hdr_max = Int.min len 60 in
    let hdr = Ldlp_buf.Mbuf.copy_out m ~pos:0 ~len:hdr_max in
    match parse hdr 0 hdr_max with
    | Error _ as e -> e
    | Ok (h, _) ->
      if h.total_length > len then Error (`Too_short len)
      else begin
        (* Drop link padding, then the header itself. *)
        if len > h.total_length then
          Ldlp_buf.Mbuf.adj m (-(len - h.total_length));
        Ldlp_buf.Mbuf.adj m (h.ihl * 4);
        Ok h
      end
  end

let encapsulate m h =
  let payload = Ldlp_buf.Mbuf.length m in
  let h = { h with ihl = 5; total_length = payload + header_bytes } in
  let m = Ldlp_buf.Mbuf.prepend m header_bytes in
  let hdr = Bytes.create header_bytes in
  build h hdr 0;
  Ldlp_buf.Mbuf.copy_into m ~pos:0 hdr ~src_off:0 ~len:header_bytes;
  m

let pseudo_header_sum ~src ~dst ~protocol ~len =
  (* Arithmetically, not via a scratch buffer: [Cksum.partial] over the
     12 pseudo-header bytes is just the sum of its big-endian 16-bit
     words, and this runs once per TCP segment on the checksum path. *)
  let words a =
    let v = Int32.to_int (Addr.Ipv4.to_int32 a) land 0xFFFFFFFF in
    (v lsr 16) + (v land 0xFFFF)
  in
  words src + words dst + (protocol land 0xFF) + (len land 0xFFFF)
