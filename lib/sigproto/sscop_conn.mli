(** Connection-managed SSCOP (closer to Q.2110): assured-mode connection
    establishment and release, keep-alive polling, and timer-driven
    retransmission, layered over the {!Sscop} sequenced-data core.

    The signalling stack of the paper's target environment (the SAAL)
    runs Q.93B over exactly this: BGN/BGAK to establish, SD frames with
    cumulative acknowledgment for the messages themselves, POLL/STAT to
    detect loss, END/ENDAK to release.

    The machine is driven by explicit timestamps — [now] is whatever clock
    the caller uses (the event engine's virtual time in simulations) — and
    performs no IO: every entry point adds the frames to transmit, and a
    {!Outbox.Link_up} or {!Outbox.Link_down} event when the connection
    comes up or goes down, to the caller's {!Outbox}.  Each frame added is
    fresh, and a data frame is also the one {!Sscop} keeps for
    retransmission, so a caller must not change a frame it is given.  An
    incoming frame is read where it lies, and the one timer's deadline is
    an unboxed float. *)

type state = Idle | Outgoing | Ready | Ending

type config = {
  poll_interval : float;  (** Keep-alive POLL period while data is unacked. *)
  response_timeout : float;  (** BGN/END/POLL response deadline. *)
  max_retransmissions : int;
}

val default_config : config
(** 100 ms polls, 500 ms response timeout, 4 retransmissions. *)

type t

val create : ?config:config -> unit -> t

val state : t -> state

val begin_connection : t -> now:float -> Outbox.t -> unit
(** Originate: adds BGN, arms the response timer.  Only from [Idle]. *)

val reserve : t -> now:float -> Outbox.t -> int -> bytes
(** [reserve t ~now ob n] is the next assured-data frame, added to [ob],
    with [n] bytes of payload at {!Sscop.header_bytes} for the caller to
    write before it drains [ob].  Raises [Invalid_argument] unless the
    state is [Ready]. *)

val release : t -> now:float -> Outbox.t -> unit
(** Orderly release: adds END. *)

val input : t -> now:float -> Outbox.t -> bytes -> int -> int -> bool
(** [input t ~now ob buf off len] processes the SSCOP frame (BGN, BGAK,
    END, ENDAK, SD, ACK, POLL or STAT) in the [len] bytes at [off], reading
    only its header.  It is true when the frame delivered in-order data:
    the payload is then the [len - Sscop.header_bytes] bytes after the
    header. *)

val tick : t -> now:float -> Outbox.t -> unit
(** Fire a due timer: POLL emission with the retransmission of every
    unacknowledged frame, BGN/END retransmission, or a reset when the
    budget runs out.  Call at (or after) {!next_deadline}. *)

val next_deadline : t -> float
(** When {!tick} next needs to run; [infinity] when no timer is armed. *)

val unacked : t -> int
(** Sequenced-data frames awaiting acknowledgment. *)
