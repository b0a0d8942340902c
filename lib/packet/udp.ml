type header = { src_port : int; dst_port : int; length : int }

let header_bytes = 8

type error = [ `Too_short of int | `Bad_checksum | `Bad_field of string ]

let parse buf off len =
  if len < header_bytes then Error (`Too_short len)
  else begin
    let length = Bytes.get_uint16_be buf (off + 4) in
    if length < header_bytes then Error (`Bad_field "length < 8")
    else if length > len then Error (`Too_short len)
    else
      Ok
        ( {
            src_port = Bytes.get_uint16_be buf off;
            dst_port = Bytes.get_uint16_be buf (off + 2);
            length;
          },
          off + header_bytes )
  end

let build h ~src ~dst buf off ~payload_len =
  let length = payload_len + header_bytes in
  Bytes.set_uint16_be buf off (h.src_port land 0xFFFF);
  Bytes.set_uint16_be buf (off + 2) (h.dst_port land 0xFFFF);
  Bytes.set_uint16_be buf (off + 4) (length land 0xFFFF);
  Bytes.set_uint16_be buf (off + 6) 0;
  let pseudo =
    Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.proto_udp ~len:length
  in
  let c = Cksum.finish (pseudo + Cksum.partial buf off length) in
  (* RFC 768: a computed zero checksum is transmitted as all ones. *)
  Bytes.set_uint16_be buf (off + 6) (if c = 0 then 0xFFFF else c)

let verify_checksum ~src ~dst buf off len =
  let pseudo =
    Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.proto_udp ~len
  in
  Cksum.finish (pseudo + Cksum.partial buf off len) = 0
