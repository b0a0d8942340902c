(** TCP segment header (RFC 793) and sequence-number arithmetic. *)

type header = {
  src_port : int;
  dst_port : int;
  seq : int;  (** In [[0, 2^32)]. *)
  ack : int;
  data_offset : int;  (** Header length in 32-bit words. *)
  flags : int;  (** Bitwise-or of the [flag_*] constants. *)
  window : int;
  urgent : int;
}

val header_bytes : int
(** Minimum header size, 20. *)

val flag_fin : int

val flag_syn : int

val flag_rst : int

val flag_psh : int

val flag_ack : int

val has_flag : header -> int -> bool

type error = [ `Too_short of int | `Bad_checksum | `Bad_field of string ]

val parse : bytes -> int -> int -> (header * int, error) result
(** Parse without checksum verification (the checksum covers the payload and
    pseudo-header; use {!verify_checksum}).  Returns header and payload
    offset. *)

val build : header -> bytes -> int -> unit
(** Write a 20-byte header with a zero checksum field; call
    {!store_checksum} afterwards. *)

(** {1 Cursor access}

    Field reads straight off the wire bytes and a record-free writer —
    the hot-path alternative to {!parse}/{!build}, touching no heap: the
    sequence numbers are immediate ints.  The [*_at] accessors
    perform {e no} validation; call {!check_at} first (it runs exactly
    the checks {!parse} runs) or only use them on buffers this module
    built.  Property-tested byte-for-byte equivalent to the record API
    in the test suite. *)

val check_at : bytes -> int -> int -> int
(** [check_at buf off len] validates the header at [off] the way
    {!parse} does (length, data-offset sanity) and returns the header
    length in bytes, options included, or -1 if {!parse} would return an
    error.  It builds no [header] and allocates nothing; only the first
    {!header_bytes} bytes at [off] are read, and only when [len] covers
    them. *)

val src_port_at : bytes -> int -> int

val dst_port_at : bytes -> int -> int

val seq_at : bytes -> int -> int

val ack_at : bytes -> int -> int

val data_offset_at : bytes -> int -> int

val flags_at : bytes -> int -> int

val window_at : bytes -> int -> int

val urgent_at : bytes -> int -> int

val write :
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  data_offset:int ->
  flags:int ->
  window:int ->
  urgent:int ->
  bytes ->
  int ->
  unit
(** {!build} from scalar fields: writes the same 20 bytes (checksum field
    zeroed) without an intermediate [header] record.  [seq] and [ack] are
    written modulo 2^32. *)

val checksum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> bytes -> int -> int -> int
(** Checksum of a TCP segment (header + payload) in a flat buffer, including
    the pseudo-header. *)

val verify_checksum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Ldlp_buf.Mbuf.t -> bool
(** Whether the segment held in a chain checksums to zero. *)

val store_checksum : src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> bytes -> int -> int -> unit
(** Compute and store the checksum of the segment at [off..off+len). *)

val store_chain_checksum :
  src:Addr.Ipv4.t -> dst:Addr.Ipv4.t -> Ldlp_buf.Mbuf.t -> unit
(** Compute and store the checksum of the segment held in a chain whose
    20-byte fixed header lies in the head mbuf (see
    {!Ldlp_buf.Mbuf.contiguous}), summing the payload where it lies.
    Allocates nothing. *)

(** Modular 32-bit sequence arithmetic (RFC 793) on sequence numbers held
    as immediate ints in [[0, 2^32)]. *)

val seq_lt : int -> int -> bool

val seq_leq : int -> int -> bool

val seq_add : int -> int -> int
(** [seq_add a n] is [a + n] modulo 2^32. *)

val seq_diff : int -> int -> int
(** [seq_diff a b] is the signed 32-bit distance [a - b]. *)
