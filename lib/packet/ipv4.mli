(** IPv4 header parsing and construction (RFC 791), without options
    processing beyond length accounting. *)

type header = {
  ihl : int;  (** Header length in 32-bit words (5 when no options). *)
  tos : int;
  total_length : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;  (** In 8-byte units. *)
  ttl : int;
  protocol : int;
  src : Addr.Ipv4.t;
  dst : Addr.Ipv4.t;
}

val header_bytes : int
(** Minimum header size, 20. *)

val proto_icmp : int

val proto_tcp : int

val proto_udp : int

type error =
  [ `Too_short of int
  | `Bad_version of int
  | `Bad_checksum
  | `Bad_field of string ]

val pp_error : Format.formatter -> error -> unit

val parse : ?verify_checksum:bool -> bytes -> int -> int -> (header * int, error) result
(** [parse buf off len] validates version, header length, total length and
    (by default) the header checksum; returns the header and payload
    offset. *)

val build : header -> bytes -> int -> unit
(** Write a 20-byte header (options unsupported) with a correct checksum. *)

val is_fragment : header -> bool

(** {1 Cursor access}

    Unvalidated field reads off the wire bytes and a record-free writer,
    for hot paths that would otherwise build a [header] per datagram.
    Call {!check_at} before trusting any [*_at] accessor; it runs
    exactly the checks {!parse} runs.  Property-tested byte-for-byte
    equivalent to the record API in the test suite. *)

val check_at : ?verify_checksum:bool -> bytes -> int -> int -> int
(** [check_at buf off len] validates like {!parse} (version, header
    length, total length, checksum) and returns the header length in
    bytes, or -1 if {!parse} would return an error.  It builds no
    [header] and allocates nothing. *)

val ihl_at : bytes -> int -> int

val tos_at : bytes -> int -> int

val total_length_at : bytes -> int -> int

val ident_at : bytes -> int -> int

val frag_at : bytes -> int -> int
(** Raw fragment word: [0x4000] don't-fragment, [0x2000] more-fragments,
    low 13 bits the fragment offset. *)

val ttl_at : bytes -> int -> int

val protocol_at : bytes -> int -> int

val src_at : bytes -> int -> Addr.Ipv4.t

val dst_at : bytes -> int -> Addr.Ipv4.t

val dst_equal : Addr.Ipv4.t -> bytes -> int -> bool
(** [dst_equal addr buf off] compares the destination of the header at
    [off] against [addr] without boxing it. *)

val write :
  tos:int ->
  total_length:int ->
  ident:int ->
  dont_fragment:bool ->
  more_fragments:bool ->
  fragment_offset:int ->
  ttl:int ->
  protocol:int ->
  src:Addr.Ipv4.t ->
  dst:Addr.Ipv4.t ->
  bytes ->
  int ->
  unit
(** {!build} from scalar fields: the same 20 bytes ([ihl] fixed at 5,
    checksum computed in place) without an intermediate record. *)

val strip : ?verify_checksum:bool -> Ldlp_buf.Mbuf.t -> (header, error) result
(** Parse at the front of a chain, trim the header, and also trim any
    link-layer padding beyond [total_length]. *)

val encapsulate : Ldlp_buf.Mbuf.t -> header -> Ldlp_buf.Mbuf.t
(** Prepend a header; [total_length] is recomputed from the chain. *)

val pseudo_header_sum : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> protocol:int -> len:int -> int
(** Partial checksum of the TCP/UDP pseudo-header. *)
