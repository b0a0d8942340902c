(** The signalling stack as {!Ldlp_core} layers.

    Four layers, bottom to top, matching the SAAL/Q.93B split the paper's
    target workload uses:

    + {b link} — strip the 1-byte port tag from the raw frame;
    + {b sscop} — sequenced delivery: deliver in-order data upward, emit a
      cumulative ack downward, absorb acks;
    + {b q93b} — decode the signalling message;
    + {b call} — run the {!Switch} call-control engine; its replies are
      re-encoded, wrapped by the per-port SSCOP transmitter, tagged with
      the outgoing port, and sent down.

    Each layer hands the message up {e in place}, the hand-off-the-buffer
    discipline (Section 3.2) the mbuf system provides for TCP/IP: it
    overwrites the message's [payload] and [size] with its view of the
    same buffer and returns the static {!Ldlp_core.Layer.up_only}.  The
    received mbuf travels up to the q93b layer: the link layer reads the
    port byte and the sscop layer the SSCOP header where they lie and trim
    them with {!Ldlp_buf.Mbuf.adj}; the q93b layer decodes straight from
    the mbuf's head segment with {!Sigmsg.decode_sub}, then frees the
    mbuf.  No frame is copied on the way up.  Only messages sent down —
    acks and replies — are fresh message records.

    Footprints attached to each layer are measured estimates of the OCaml
    implementation's code size; they drive the {!Ldlp_core.Blocking}
    analysis, not execution. *)

type body =
  | Raw of Ldlp_buf.Mbuf.t  (** As received: port tag + SSCOP frame. *)
  | Frame of int * Ldlp_buf.Mbuf.t
      (** (port, SSCOP frame): the port tag trimmed off the same mbuf. *)
  | Signalling of int * Ldlp_buf.Mbuf.t
      (** (port, Q.93B message): the SSCOP header trimmed off too. *)
  | Decoded of int * Sigmsg.t  (** The q93b layer has freed the mbuf. *)
  | Sdu of int * bytes
      (** (port, SSCOP frame) sent down: an ack or an encoded reply. *)

type item = body

val frame : pool:Ldlp_buf.Pool.t -> port:int -> bytes -> Ldlp_buf.Mbuf.t
(** Build a raw link frame around SSCOP payload bytes. *)

val encode_tx : sscop_for:(int -> Sscop.t) -> port:int -> Sigmsg.t -> int * bytes
(** Encode a signalling message for transmission: Q.93B bytes wrapped in a
    sequenced SSCOP frame for the given port.  Returns (port, frame). *)

type stack = {
  layers : item Ldlp_core.Layer.t list;
  sscop_for : int -> Sscop.t;
      (** Per-port receive/transmit SSCOP state, made on first use and
          found by indexing an array with the one-byte port tag.  Raises
          [Invalid_argument] for a port outside [[0, 255]]. *)
  switch : Switch.t;
}

val stack :
  pool:Ldlp_buf.Pool.t ->
  switch:Switch.t ->
  ?acks:bool ->
  unit ->
  stack
(** Build the four-layer receive stack.  With [acks] (default true) the
    sscop layer sends a cumulative ack downward for every delivered
    frame.  Received mbufs are freed to [pool] by the layer that drops or
    decodes them. *)
