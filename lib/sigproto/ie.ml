type t = { id : int; data : string }

let id_called_party = 0x70

let id_qos = 0x5C

let id_vpcvci = 0x5A

let id_cause = 0x08

let called_party addr = { id = id_called_party; data = addr }

let qos cls =
  if cls < 0 || cls > 255 then invalid_arg "Ie.qos: class out of range";
  { id = id_qos; data = String.make 1 (Char.chr cls) }

let vpc_vci ~vpi ~vci =
  if vpi < 0 || vpi > 0xFF then invalid_arg "Ie.vpc_vci: bad VPI";
  if vci < 0 || vci > 0xFFFF then invalid_arg "Ie.vpc_vci: bad VCI";
  let b = Bytes.create 3 in
  Bytes.set b 0 (Char.chr vpi);
  Bytes.set b 1 (Char.chr (vci lsr 8));
  Bytes.set b 2 (Char.chr (vci land 0xFF));
  { id = id_vpcvci; data = Bytes.to_string b }

let cause c =
  if c < 0 || c > 255 then invalid_arg "Ie.cause: out of range";
  { id = id_cause; data = String.make 1 (Char.chr c) }

let rec find id = function
  | [] -> None
  | ie :: rest -> if ie.id = id then Some ie else find id rest

type error = [ `Truncated | `Bad_length of int ]

let encoded_length ies =
  List.fold_left (fun acc ie -> acc + 3 + String.length ie.data) 0 ies

let encode_list ies buf off =
  List.fold_left
    (fun off ie ->
      let len = String.length ie.data in
      Bytes.set buf off (Char.chr (ie.id land 0xFF));
      Bytes.set buf (off + 1) (Char.chr ((len lsr 8) land 0xFF));
      Bytes.set buf (off + 2) (Char.chr (len land 0xFF));
      Bytes.blit_string ie.data 0 buf (off + 3) len;
      off + 3 + len)
    off ies

(* Toplevel, not a local [go] capturing [buf] and [stop]: decoding runs
   once per signalling message and should not allocate a closure. *)
let rec decode_from buf stop acc off =
  if off = stop then Ok (List.rev acc)
  else if stop - off < 3 then Error `Truncated
  else begin
    let id = Bytes.get_uint8 buf off in
    let dlen = Bytes.get_uint16_be buf (off + 1) in
    if off + 3 + dlen > stop then Error (`Bad_length dlen)
    else
      decode_from buf stop
        ({ id; data = Bytes.sub_string buf (off + 3) dlen } :: acc)
        (off + 3 + dlen)
  end

let decode_list buf off len = decode_from buf (off + len) [] off
