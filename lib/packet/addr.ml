module Mac = struct
  type t = string (* exactly 6 raw bytes *)

  let of_bytes b off =
    if off < 0 || off + 6 > Bytes.length b then
      invalid_arg "Mac.of_bytes: out of range";
    Bytes.sub_string b off 6

  let write t b off = Bytes.blit_string t 0 b off 6

  let of_string s =
    match String.split_on_char ':' s with
    | [ a; b; c; d; e; f ] ->
      let byte x =
        match int_of_string_opt ("0x" ^ x) with
        | Some v when v >= 0 && v <= 0xFF -> Char.chr v
        | _ -> invalid_arg ("Mac.of_string: " ^ s)
      in
      let parts = [ a; b; c; d; e; f ] in
      String.init 6 (fun i -> byte (List.nth parts i))
    | _ -> invalid_arg ("Mac.of_string: " ^ s)

  let to_string t =
    String.concat ":"
      (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code t.[i])))

  let broadcast = String.make 6 '\xff'

  let is_broadcast t = String.equal t broadcast

  (* Compare against 6 raw bytes in place — the hot receive path's
     address filter must not extract a substring per frame, nor allocate
     the closure a local loop over [t], [b] and [off] would. *)
  let rec equal_from t b off i =
    i >= 6
    || (Bytes.get b (off + i) = String.unsafe_get t i && equal_from t b off (i + 1))

  let equal_at t b off = off >= 0 && off + 6 <= Bytes.length b && equal_from t b off 0

  let is_broadcast_at b off = equal_at broadcast b off

  let equal = String.equal

  let compare = String.compare
end

module Ipv4 = struct
  type t = int32

  let of_int32 x = x

  let to_int32 x = x

  let of_bytes b off =
    if off < 0 || off + 4 > Bytes.length b then
      invalid_arg "Ipv4.of_bytes: out of range";
    Bytes.get_int32_be b off

  let write t b off = Bytes.set_int32_be b off t

  (* Two 16-bit reads against the unboxed address: no [int32] is boxed,
     whatever the caller's inlining. *)
  let equal_at t b off =
    off >= 0
    && off + 4 <= Bytes.length b
    && (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)
       = Int32.to_int t land 0xFFFFFFFF

  let of_string s =
    match String.split_on_char '.' s with
    | [ a; b; c; d ] ->
      let octet x =
        match int_of_string_opt x with
        | Some v when v >= 0 && v <= 255 -> Int32.of_int v
        | _ -> invalid_arg ("Ipv4.of_string: " ^ s)
      in
      let ( <|> ) hi lo = Int32.logor (Int32.shift_left hi 8) lo in
      octet a <|> octet b <|> octet c <|> octet d
    | _ -> invalid_arg ("Ipv4.of_string: " ^ s)

  let to_string t =
    let octet shift =
      Int32.to_int (Int32.logand (Int32.shift_right_logical t shift) 0xFFl)
    in
    Printf.sprintf "%d.%d.%d.%d" (octet 24) (octet 16) (octet 8) (octet 0)

  let equal = Int32.equal

  let compare = Int32.compare
end
