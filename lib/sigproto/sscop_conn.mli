(** Connection-managed SSCOP (closer to Q.2110): assured-mode connection
    establishment and release, keep-alive polling, and timer-driven
    retransmission, layered over the {!Sscop} sequenced-data core.

    The signalling stack of the paper's target environment (the SAAL)
    runs Q.93B over exactly this: BGN/BGAK to establish, SD frames with
    cumulative acknowledgment for the messages themselves, POLL/STAT to
    detect loss, END/ENDAK to release.

    The machine is driven by explicit timestamps — [now] is whatever clock
    the caller uses (the event engine's virtual time in simulations) — and
    is purely functional in its outputs: every entry point returns the
    frames to transmit rather than transmitting them. *)

type state = Idle | Outgoing | Ready | Ending

type config = {
  poll_interval : float;  (** Keep-alive POLL period while data is unacked. *)
  response_timeout : float;  (** BGN/END/POLL response deadline. *)
  max_retransmissions : int;
}

val default_config : config
(** 100 ms polls, 500 ms response timeout, 4 retransmissions. *)

type event =
  | Connected  (** The connection reached [Ready]. *)
  | Released  (** Orderly release completed. *)
  | Reset of string  (** Retransmission budget exhausted; connection dead. *)

type outcome = {
  deliveries : bytes list;  (** In-order assured data for the upper layer. *)
  to_send : bytes list;  (** Frames to put on the wire. *)
  events : event list;
}

type t

val create : ?config:config -> unit -> t

val state : t -> state

val begin_connection : t -> now:float -> outcome
(** Originate: emits BGN, arms the response timer. *)

val send : t -> now:float -> bytes -> (outcome, [ `Not_ready ]) result
(** Assured-mode data; only valid in [Ready]. *)

val release : t -> now:float -> outcome
(** Orderly release: emits END. *)

val on_receive : t -> now:float -> bytes -> outcome
(** Process any SSCOP frame (BGN/BGAK/END/ENDAK/SD/ACK/POLL/STAT). *)

val tick : t -> now:float -> outcome
(** Fire due timers: POLL emission, BGN/END/data retransmission, or
    connection reset when the budget runs out.  Call at (or after)
    {!next_deadline}. *)

val next_deadline : t -> float option
(** When {!tick} next needs to run; [None] when no timer is armed. *)

val unacked : t -> int
(** Sequenced-data frames awaiting acknowledgment. *)
