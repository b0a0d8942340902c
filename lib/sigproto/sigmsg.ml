type msg_type =
  | Setup
  | Call_proceeding
  | Connect
  | Connect_ack
  | Release
  | Release_complete
  | Status
  | Status_enquiry

let msg_type_code = function
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

let pp_error ppf = function
  | `Too_short n -> Format.fprintf ppf "message too short (%d bytes)" n
  | `Bad_discriminator d -> Format.fprintf ppf "bad protocol discriminator 0x%02x" d
  | `Bad_call_ref_length n -> Format.fprintf ppf "bad call reference length %d" n
  | `Unknown_type c -> Format.fprintf ppf "unknown message type 0x%02x" c
  | `Bad_length n -> Format.fprintf ppf "bad message length %d" n
  | #Ie.error as e -> Ie.pp_error ppf e

let encoded_length t = header_bytes + Ie.encoded_length t.ies

let encode t =
  let ie_len = Ie.encoded_length t.ies in
  let buf = Bytes.create (header_bytes + ie_len) in
  Bytes.set buf 0 (Char.chr protocol_discriminator);
  Bytes.set buf 1 '\003';
  let cr = t.call_ref lor if t.from_originator then 0x800000 else 0 in
  Bytes.set buf 2 (Char.chr ((cr lsr 16) land 0xFF));
  Bytes.set buf 3 (Char.chr ((cr lsr 8) land 0xFF));
  Bytes.set buf 4 (Char.chr (cr land 0xFF));
  Bytes.set buf 5 (Char.chr (msg_type_code t.typ));
  Bytes.set buf 6 (Char.chr ((ie_len lsr 8) land 0xFF));
  Bytes.set buf 7 (Char.chr (ie_len land 0xFF));
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
