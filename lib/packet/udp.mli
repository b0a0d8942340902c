(** UDP header (RFC 768). *)

type header = { src_port : int; dst_port : int; length : int }

val header_bytes : int
(** 8. *)

type error = [ `Too_short of int | `Bad_checksum | `Bad_field of string ]

val parse : bytes -> int -> int -> (header * int, error) result

val build :
  header -> src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> bytes -> int -> payload_len:int -> unit
(** Write the header at an offset, computing the checksum over the payload
    that must already sit at [off + 8].  [header.length] is overridden by
    [payload_len + 8]. *)

val verify_checksum : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> bytes -> int -> int -> bool
