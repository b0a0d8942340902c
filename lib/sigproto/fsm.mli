(** Per-call connection-control state machine (both half-calls).

    A reduced Q.93B call model: the originating side sends SETUP and waits
    through CALL_PROCEEDING and CONNECT; the terminating side answers a
    SETUP with CALL_PROCEEDING and, on local accept, CONNECT; either side
    releases with the RELEASE / RELEASE_COMPLETE handshake.  Transitions are
    pure: [step] maps (state, event) to a new state plus actions, and
    flags protocol errors instead of mutating hidden state — so properties
    like "no action sequence reaches an undefined transition" are directly
    testable. *)

type state =
  | Null
  | Call_initiated  (** Originator: SETUP sent. *)
  | Outgoing_proceeding  (** Originator: CALL_PROCEEDING received. *)
  | Call_present  (** Terminator: SETUP received, not yet answered. *)
  | Connect_request  (** Terminator: CONNECT sent, awaiting ack. *)
  | Active
  | Release_request  (** RELEASE sent, awaiting completion. *)

val code : state -> int
(** The state's position in the declaration above, from 0, for storage
    in an int column ({!Switch} keeps both half-calls' states that way). *)

val of_code : int -> state
(** The inverse of {!code}; raises [Invalid_argument] outside [[0, 6]]. *)

type event =
  | Recv of Sigmsg.msg_type
  | Api_setup  (** Local user initiates a call. *)
  | Api_accept  (** Local user answers an incoming call. *)
  | Api_release  (** Local user hangs up. *)

val recv : Sigmsg.msg_type -> event
(** [Recv typ], from static data: a caller that builds the event per
    message this way allocates nothing for it. *)

type action =
  | Send of Sigmsg.msg_type  (** Transmit to the peer. *)
  | Notify_setup  (** Tell the local user a call is being offered. *)
  | Notify_connected
  | Notify_released

type verdict =
  | Ok_next of state * action list
  | Protocol_error of string
      (** Unexpected event for the state; Q.93B answers with STATUS, which
          the caller is responsible for sending. *)

val step : state -> event -> verdict

val is_terminal : state -> bool
(** [Null] — the call reference can be reused. *)

val is_terminal_code : int -> bool
(** [is_terminal] of the state with that {!code}. *)
