(** Link-layer and network-layer addresses. *)

module Mac : sig
  type t
  (** 48-bit Ethernet address. *)

  val of_bytes : bytes -> int -> t
  (** Read 6 bytes at an offset. *)

  val write : t -> bytes -> int -> unit

  val of_string : string -> t
  (** Parse ["aa:bb:cc:dd:ee:ff"]; raises [Invalid_argument] otherwise. *)

  val to_string : t -> string

  val broadcast : t

  val is_broadcast : t -> bool

  val equal : t -> t -> bool

  val equal_at : t -> bytes -> int -> bool
  (** [equal_at t b off] is [equal t (of_bytes b off)] without the
      extraction (false, not an exception, when the range is out of
      bounds) — the receive path's address filter.  Allocates nothing. *)

  val is_broadcast_at : bytes -> int -> bool
  (** [equal_at broadcast]. *)

  val compare : t -> t -> int
end

module Ipv4 : sig
  type t
  (** 32-bit IPv4 address. *)

  val of_int32 : int32 -> t

  val to_int32 : t -> int32

  val of_bytes : bytes -> int -> t

  val write : t -> bytes -> int -> unit

  val equal_at : t -> bytes -> int -> bool
  (** [equal_at t b off] is [equal t (of_bytes b off)] without boxing the
      address read (false when the range is out of bounds).  Allocates
      nothing. *)

  val of_string : string -> t
  (** Parse dotted quad; raises [Invalid_argument] otherwise. *)

  val to_string : t -> string

  val equal : t -> t -> bool

  val compare : t -> t -> int
end
