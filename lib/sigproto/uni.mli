(** A user-network-interface signalling endpoint: Q.93B call control over
    the assured-mode SSCOP connection — the complete per-link stack of the
    paper's target environment (the ATM SAAL), as one driveable machine.

    Owns the SSCOP connection (established with {!link_up}) and a table of
    call half-FSMs, plus the two classic Q.93B supervision timers:

    - {b T303}: SETUP sent; if no response arrives, SETUP is retransmitted
      once, then the call is abandoned;
    - {b T308}: RELEASE sent; retransmitted once, then the call is
      considered dead and cleared locally.

    Like {!Sscop_conn}, the machine is clocked by the caller and returns
    the frames to transmit instead of performing IO. *)

type t

type event =
  | Link_up
  | Link_down of string
  | Call_offered of int * Ie.t list  (** Incoming SETUP: call ref, IEs. *)
  | Call_connected of int
  | Call_released of int
  | Call_failed of int * string  (** Timer expiry or protocol error. *)

type outcome = {
  to_wire : bytes list;  (** SSCOP frames for the link. *)
  events : event list;
}

val create : ?sscop:Sscop_conn.config -> ?t303:float -> ?t308:float -> unit -> t
(** Defaults: T303 = 4 s, T308 = 30 s (Q.93B's values). *)

val link_up : t -> now:float -> outcome
(** Originate the SSCOP connection.  Calls can be placed once {!Link_up}
    has been reported. *)

val link_ready : t -> bool

val originate : t -> now:float -> call_ref:int -> Ie.t list -> (outcome, [ `Link_down | `Busy_ref ]) result
(** Place a call: sends SETUP (assured), arms T303. *)

val abort : t -> call_ref:int -> bool
(** Drop all local state for a call without signalling the peer: no
    RELEASE, no events, supervision timer disarmed.  For a retry engine
    abandoning an attempt it has already given up on (the peer's
    half-open state, if any, dies with its own timers).  Returns whether
    the call existed. *)

val accept : t -> now:float -> call_ref:int -> (outcome, [ `No_call ]) result
(** Answer a call previously reported by {!Call_offered}. *)

val hangup : t -> now:float -> call_ref:int -> (outcome, [ `No_call ]) result
(** Clear a call: sends RELEASE, arms T308. *)

val on_wire : t -> now:float -> bytes -> outcome
(** Process one SSCOP frame from the link. *)

val tick : t -> now:float -> outcome
(** Fire due timers (SSCOP polls/retransmissions, T303, T308). *)

val next_deadline : t -> float option
(** The earliest armed timer, SSCOP's or a call's T303/T308; [None] when
    none is armed.  A fold over the call table: no list is built. *)

val call_state : t -> call_ref:int -> Fsm.state option

val active_calls : t -> int
