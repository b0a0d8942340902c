type t = { id : int; data : string }

let id_called_party = 0x70

let id_qos = 0x5C

let id_vpcvci = 0x5A

let id_cause = 0x08

let called_party addr = { id = id_called_party; data = addr }

let qos cls =
  if cls < 0 || cls > 255 then invalid_arg "Ie.qos: class out of range";
  { id = id_qos; data = String.make 1 (Char.chr cls) }

type error = [ `Truncated | `Bad_length of int ]

(* Per element: id byte, 2-byte big-endian length, data. *)
let header_bytes = 3

let encoded_length ies =
  List.fold_left (fun acc ie -> acc + header_bytes + String.length ie.data) 0 ies

let write_header buf off id len =
  Bytes.set_uint8 buf off id;
  Bytes.set_uint16_be buf (off + 1) len

let encode_list ies buf off =
  List.fold_left
    (fun off ie ->
      let len = String.length ie.data in
      write_header buf off (ie.id land 0xFF) len;
      Bytes.blit_string ie.data 0 buf (off + header_bytes) len;
      off + header_bytes + len)
    off ies

let encode ies =
  let buf = Bytes.create (encoded_length ies) in
  ignore (encode_list ies buf 0);
  buf

(* Toplevel, not a local [go] capturing [buf] and [stop]: decoding runs
   once per signalling message and should not allocate a closure. *)
let rec decode_from buf stop acc off =
  if off = stop then Ok (List.rev acc)
  else if stop - off < header_bytes then Error `Truncated
  else begin
    let id = Bytes.get_uint8 buf off in
    let dlen = Bytes.get_uint16_be buf (off + 1) in
    if off + header_bytes + dlen > stop then Error (`Bad_length dlen)
    else
      decode_from buf stop
        ({ id; data = Bytes.sub_string buf (off + header_bytes) dlen } :: acc)
        (off + header_bytes + dlen)
  end

let decode_list buf off len = decode_from buf (off + len) [] off

(* [decode_from]'s walk without the elements. *)
let rec check_from buf stop off =
  off = stop
  || stop - off >= header_bytes
     &&
     let next = off + header_bytes + Bytes.get_uint16_be buf (off + 1) in
     next <= stop && check_from buf stop next

let check_list buf off len = check_from buf (off + len) off

let data_length_at buf p = Bytes.get_uint16_be buf (p + 1)

let rec find_from id buf stop p =
  if stop - p < header_bytes then -1
  else if Bytes.get_uint8 buf p = id then p
  else find_from id buf stop (p + header_bytes + data_length_at buf p)

let find_at id buf off len = find_from id buf (off + len) off

let cause_bytes = header_bytes + 1

let write_cause buf off c =
  write_header buf off id_cause 1;
  Bytes.set_uint8 buf (off + header_bytes) c

let vpc_vci_bytes = header_bytes + 3

let write_vpc_vci buf off ~vpi ~vci =
  write_header buf off id_vpcvci 3;
  Bytes.set_uint8 buf (off + header_bytes) vpi;
  Bytes.set_uint16_be buf (off + header_bytes + 1) vci
