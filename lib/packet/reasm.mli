(** IPv4 fragmentation and reassembly.

    The paper's traced fast path is taken when a datagram "is addressed to
    the host and is not a fragment"; this module is the slow path that
    check guards: splitting a datagram into MTU-sized fragments, and a
    reassembly queue keyed by (source, destination, protocol, ident) that
    accepts fragments in any order and produces the restored payload.

    Incomplete reassemblies are discarded after a timeout, as RFC 791
    requires — the caller supplies timestamps, keeping the module clock-
    free like the rest of the stack. *)

val fragment :
  mtu:int -> header:Ipv4.header -> payload:bytes -> (Ipv4.header * bytes) list
(** Split [payload] into fragments whose IP payload fits [mtu] bytes (the
    fragment data length is rounded down to a multiple of 8 as the
    fragment-offset field requires).  A payload that already fits yields
    one element with offset 0 and MF clear.  Raises [Invalid_argument] if
    [mtu] cannot carry at least 8 payload bytes, or if the header has
    [dont_fragment] set and the payload doesn't fit. *)

type t
(** A reassembly queue. *)

val create : unit -> t
(** A reassembly times out 30 s after its first fragment; at most 64 run
    at once (the oldest is evicted beyond that). *)

type result =
  | Complete of Ipv4.header * bytes
      (** All fragments arrived; the header is the first fragment's with
          offset/MF cleared and [total_length] restored. *)
  | Pending  (** Stored; more fragments needed. *)
  | Rejected of string
      (** Overlapping/inconsistent/oversized fragment, or a final
          fragment that ends before data already stored.  An overlap or
          a short final fragment drops the whole reassembly. *)

val input : t -> now:float -> Ipv4.header -> bytes -> result
(** Offer one fragment (header plus its payload bytes).  A datagram with
    offset 0 and MF clear completes immediately.  Reassemblies older
    than the timeout are dropped first. *)

val pending : t -> int
(** Reassemblies in progress. *)
