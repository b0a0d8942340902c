(** SSCOP-lite: the reliable-transfer layer under Q.93B signalling.

    A deliberately small subset of SSCOP (Q.2110): sequenced data frames
    with cumulative acknowledgments and sender-side retransmission
    buffering.  It exists because the paper's motivating workload — ATM
    signalling — is a multi-layer stack (SAAL = SSCOP + coordination under
    Q.93B), and LDLP's benefit grows with the number of layers crossed per
    message.

    Frame layout: 1 tag byte ('D' sequenced data, 'A' cumulative ack),
    3-byte big-endian sequence number, payload (data frames only).

    Sequence numbers are 24 bits and wrap from 2^24 - 1 to 0.  A cumulative
    ack is compared with the buffered frames in serial-number order (an
    ack acknowledges a frame when it lies less than half the sequence space
    ahead of it), so trimming keeps working across the wrap.

    The retransmission buffer holds the data frames exactly as {!send}
    returned them: each payload is framed once and that one copy serves
    both the first transmission and any retransmission. *)

type t

val create : unit -> t

val header_bytes : int
(** 4. *)

type received =
  | Deliver of bytes  (** In-order data; payload for the upper layer. *)
  | Out_of_order of int  (** Unexpected sequence number (frame dropped). *)
  | Ack_processed of int  (** Cumulative ack up to (excluding) this seq. *)
  | Malformed of string

val send : t -> bytes -> bytes
(** Wrap a payload as the next sequenced-data frame.  The returned frame is
    the one retained for retransmission until acknowledged, so callers must
    not mutate it. *)

val on_receive : t -> bytes -> received
(** Process an incoming frame (data or ack). *)

(** {1 In-place receive} *)

type verdict =
  | Delivered  (** In-order data: the payload follows the header. *)
  | Acked  (** A cumulative ack, applied to the retransmission buffer. *)
  | Unexpected  (** Data with an unexpected sequence number (dropped). *)
  | Invalid  (** Shorter than a header, or an unknown tag. *)

val input : t -> bytes -> int -> int -> verdict
(** [input t buf off len] processes the [len]-byte frame starting at [off]
    in [buf], exactly as {!on_receive} would, but in place: it reads only
    the header and allocates nothing.  On [Delivered] the payload is the
    [len - header_bytes] bytes after the header. *)

val make_ack : t -> bytes
(** Cumulative acknowledgment for everything delivered so far. *)

val next_send_seq : t -> int

val next_expected_seq : t -> int

val unacked_count : t -> int
(** Frames in the retransmission buffer; O(1). *)

val unacked : t -> (int * bytes) list
(** Retransmission buffer as (sequence number, payload), oldest first.
    Built from the stored frames on each call: a cold path. *)

val retransmit : t -> bytes list
(** Fresh copies of every unacknowledged frame, oldest first. *)

(** {1 Raw framing} (shared with the connection-managed layer) *)

val frame : tag:char -> seq:int -> bytes -> bytes

val parse : bytes -> (char * int * bytes, string) result
(** Split any SSCOP frame into (tag, sequence number, payload). *)
