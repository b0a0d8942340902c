(** Ethernet II framing. *)

type header = {
  dst : Addr.Mac.t;
  src : Addr.Mac.t;
  ethertype : int;  (** 16-bit, e.g. {!ethertype_ipv4}. *)
}

val header_bytes : int
(** 14. *)

val ethertype_ipv4 : int
(** 0x0800. *)

type error = [ `Too_short of int | `Bad_field of string ]

val parse : bytes -> int -> int -> (header * int, error) result
(** [parse buf off len] reads a header at [off]; on success returns the
    header and the offset of the payload. *)

val build : header -> bytes -> int -> unit
(** Write a header at an offset (caller supplies room).  Raises
    [Invalid_argument] if the ethertype is outside [[0, 0xFFFF]]. *)

(** {1 Cursor access}

    In-place reads and a record-free writer; the frame header is fixed
    size, so the only precondition is [len >= header_bytes].
    Property-tested byte-for-byte equivalent to the record API in the
    test suite. *)

val ethertype_at : bytes -> int -> int

val dst_equal : Addr.Mac.t -> bytes -> int -> bool
(** [dst_equal mac buf off] compares the destination MAC of the frame at
    [off] against [mac] without extracting it. *)

val dst_is_broadcast : bytes -> int -> bool

val write : dst:Addr.Mac.t -> src:Addr.Mac.t -> ethertype:int -> bytes -> int -> unit
(** {!build} from scalar fields; raises [Invalid_argument] as {!build}
    does. *)

val strip : Ldlp_buf.Mbuf.t -> (header, error) result
(** Parse the header at the front of the chain and trim it off. *)

val encapsulate : Ldlp_buf.Mbuf.t -> header -> Ldlp_buf.Mbuf.t
(** Prepend a header to the chain (uses the mbuf's leading space). *)
