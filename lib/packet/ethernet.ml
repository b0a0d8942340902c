type header = { dst : Addr.Mac.t; src : Addr.Mac.t; ethertype : int }

let header_bytes = 14

let ethertype_ipv4 = 0x0800

type error = [ `Too_short of int | `Bad_field of string ]

let parse buf off len =
  if len < header_bytes then Error (`Too_short len)
  else
    let dst = Addr.Mac.of_bytes buf off in
    let src = Addr.Mac.of_bytes buf (off + 6) in
    let ethertype = Bytes.get_uint16_be buf (off + 12) in
    Ok ({ dst; src; ethertype }, off + header_bytes)

(* Cursor accessors: the frame header has no variable-length parts, so
   the only check needed before using these is [len >= header_bytes]. *)

let ethertype_at buf off = Bytes.get_uint16_be buf (off + 12)

(* MAC comparisons against the raw frame, without the 6-byte substring
   [Addr.Mac.of_bytes] would allocate. *)
let dst_equal mac buf off = Addr.Mac.equal_at mac buf off

let dst_is_broadcast buf off = Addr.Mac.is_broadcast_at buf off

(* An ethertype is 16 bits: one that is not raises rather than being
   cut to its low bits. *)
let write ~dst ~src ~ethertype buf off =
  if ethertype lsr 16 <> 0 then
    invalid_arg (Printf.sprintf "Ethernet.write: ethertype %d" ethertype);
  Addr.Mac.write dst buf off;
  Addr.Mac.write src buf (off + 6);
  Bytes.set_uint16_be buf (off + 12) ethertype

let build h buf off = write ~dst:h.dst ~src:h.src ~ethertype:h.ethertype buf off

let strip m =
  let len = Ldlp_buf.Mbuf.length m in
  if len < header_bytes then Error (`Too_short len)
  else begin
    let hdr = Ldlp_buf.Mbuf.copy_out m ~pos:0 ~len:header_bytes in
    match parse hdr 0 header_bytes with
    | Ok (h, _) ->
      Ldlp_buf.Mbuf.adj m header_bytes;
      Ok h
    | Error _ as e -> e
  end

let encapsulate m h =
  let m = Ldlp_buf.Mbuf.prepend m header_bytes in
  let hdr = Bytes.create header_bytes in
  build h hdr 0;
  Ldlp_buf.Mbuf.copy_into m ~pos:0 hdr ~src_off:0 ~len:header_bytes;
  m
