type msg_type =
  | Setup
  | Call_proceeding
  | Connect
  | Connect_ack
  | Release
  | Release_complete
  | Status
  | Status_enquiry

let type_code = function
  | Setup -> 0x05
  | Call_proceeding -> 0x02
  | Connect -> 0x07
  | Connect_ack -> 0x0F
  | Release -> 0x4D
  | Release_complete -> 0x5A
  | Status -> 0x7D
  | Status_enquiry -> 0x75

let msg_type_of_code = function
  | 0x05 -> Some Setup
  | 0x02 -> Some Call_proceeding
  | 0x07 -> Some Connect
  | 0x0F -> Some Connect_ack
  | 0x4D -> Some Release
  | 0x5A -> Some Release_complete
  | 0x7D -> Some Status
  | 0x75 -> Some Status_enquiry
  | _ -> None

let msg_type_name = function
  | Setup -> "SETUP"
  | Call_proceeding -> "CALL_PROCEEDING"
  | Connect -> "CONNECT"
  | Connect_ack -> "CONNECT_ACK"
  | Release -> "RELEASE"
  | Release_complete -> "RELEASE_COMPLETE"
  | Status -> "STATUS"
  | Status_enquiry -> "STATUS_ENQUIRY"

type t = {
  call_ref : int;
  from_originator : bool;
  typ : msg_type;
  ies : Ie.t list;
}

let protocol_discriminator = 0x09

let header_bytes = 8

let v ?(from_originator = true) ~call_ref typ ies =
  if call_ref < 0 || call_ref > 0x7FFFFF then
    invalid_arg "Sigmsg.v: call reference out of 23-bit range";
  { call_ref; from_originator; typ; ies }

type error =
  [ `Too_short of int
  | `Bad_discriminator of int
  | `Bad_call_ref_length of int
  | `Unknown_type of int
  | `Bad_length of int
  | Ie.error ]

let write_header buf off ~call_ref ~from_originator ~code ~ie_len =
  Bytes.set_uint8 buf off protocol_discriminator;
  Bytes.set_uint8 buf (off + 1) 3;
  let cr = call_ref lor if from_originator then 0x800000 else 0 in
  Bytes.set_uint8 buf (off + 2) (cr lsr 16);
  Bytes.set_uint16_be buf (off + 3) (cr land 0xFFFF);
  Bytes.set_uint8 buf (off + 5) code;
  Bytes.set_uint16_be buf (off + 6) ie_len

let encode t =
  let ie_len = Ie.encoded_length t.ies in
  let buf = Bytes.create (header_bytes + ie_len) in
  write_header buf 0 ~call_ref:t.call_ref ~from_originator:t.from_originator
    ~code:(type_code t.typ) ~ie_len;
  ignore (Ie.encode_list t.ies buf header_bytes);
  buf

let decode_sub buf off len =
  if len < header_bytes then Error (`Too_short len)
  else begin
    let pd = Bytes.get_uint8 buf off and crl = Bytes.get_uint8 buf (off + 1) in
    let code = Bytes.get_uint8 buf (off + 5) in
    if pd <> protocol_discriminator then Error (`Bad_discriminator pd)
    else if crl <> 3 then Error (`Bad_call_ref_length crl)
    else
      match msg_type_of_code code with
      | None -> Error (`Unknown_type code)
      | Some typ ->
        let ie_len = Bytes.get_uint16_be buf (off + 6) in
        if header_bytes + ie_len > len then Error (`Bad_length ie_len)
        else begin
          match Ie.decode_list buf (off + header_bytes) ie_len with
          | Error e -> Error (e :> error)
          | Ok ies ->
            let cr =
              (Bytes.get_uint8 buf (off + 2) lsl 16)
              lor Bytes.get_uint16_be buf (off + 3)
            in
            Ok
              {
                call_ref = cr land 0x7FFFFF;
                from_originator = cr land 0x800000 <> 0;
                typ;
                ies;
              }
        end
  end

let decode buf = decode_sub buf 0 (Bytes.length buf)

let check_at buf off len =
  if
    len < header_bytes
    || Bytes.get_uint8 buf off <> protocol_discriminator
    || Bytes.get_uint8 buf (off + 1) <> 3
    || Option.is_none (msg_type_of_code (Bytes.get_uint8 buf (off + 5)))
  then -1
  else
    let ie_len = Bytes.get_uint16_be buf (off + 6) in
    if header_bytes + ie_len <= len && Ie.check_list buf (off + header_bytes) ie_len
    then ie_len
    else -1

let call_ref_at buf off =
  ((Bytes.get_uint8 buf (off + 2) lsl 16) lor Bytes.get_uint16_be buf (off + 3))
  land 0x7FFFFF

let from_originator_at buf off = Bytes.get_uint8 buf (off + 2) land 0x80 <> 0

let typ_at buf off =
  match msg_type_of_code (Bytes.get_uint8 buf (off + 5)) with
  | Some typ -> typ
  | None -> invalid_arg "Sigmsg.typ_at: unknown message type"

let ie_length_at buf off = Bytes.get_uint16_be buf (off + 6)
