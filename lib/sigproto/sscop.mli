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
    and {!reserve} returned them: each payload is framed once and that one
    copy serves both the first transmission and any retransmission.  The
    buffer is a ring of frames in an array that doubles when full, so
    sending a frame allocates only the frame. *)

type t

val create : unit -> t

val header_bytes : int
(** 4. *)

type received =
  | Deliver of bytes  (** In-order data; payload for the upper layer. *)
  | Out_of_order of int  (** Unexpected sequence number (frame dropped). *)
  | Ack_processed of int  (** Cumulative ack up to (excluding) this seq. *)
  | Malformed of string

val reserve : t -> int -> bytes
(** [reserve t n] is the next sequenced-data frame, with its header
    written and [n] bytes of payload left for the caller to fill in at
    {!header_bytes}: the in-place form of {!send}.  The frame is the one
    retained for retransmission until acknowledged, so callers write the
    payload before the frame leaves and must not mutate it after. *)

val send : t -> bytes -> bytes
(** Wrap a payload as the next sequenced-data frame: {!reserve} and one
    blit of the payload.  The same retention rules apply. *)

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

val acknowledge : t -> bytes -> int -> unit
(** [acknowledge t buf off] applies the sequence number in the frame
    header at [off] as a cumulative ack, whatever the frame's tag: how a
    connection reads a STAT where it lies. *)

val make_ack : t -> bytes
(** Cumulative acknowledgment for everything delivered so far. *)

val next_send_seq : t -> int

val next_expected_seq : t -> int

val unacked_count : t -> int
(** Frames in the retransmission buffer; O(1). *)

val unacked : t -> (int * bytes) list
(** Retransmission buffer as (sequence number, payload), oldest first.
    Built from the stored frames on each call: a cold path. *)

val retransmit : t -> int -> bytes
(** [retransmit t i] is a fresh copy of the [i]th oldest unacknowledged
    frame, from 0; raises [Invalid_argument] unless [i] is below
    {!unacked_count}. *)

(** {1 Raw framing} (shared with the connection-managed layer) *)

val frame : tag:char -> seq:int -> bytes -> bytes
