(** A user-network-interface signalling endpoint: Q.93B call control over
    the assured-mode SSCOP connection — the complete per-link stack of the
    paper's target environment (the ATM SAAL), as one driveable machine.

    Owns the SSCOP connection (established with {!link_up}) and a table of
    call half-FSMs, plus the two classic Q.93B supervision timers:

    - {b T303}: SETUP sent; if no response arrives, SETUP is retransmitted
      once, then the call is abandoned;
    - {b T308}: RELEASE sent; retransmitted once, then the call is
      considered dead and cleared locally.

    Like {!Sscop_conn}, the machine is clocked by the caller and performs
    no IO.  Every operation adds the SSCOP frames to transmit and the
    events it raises to the endpoint's {!outbox}, in order; the caller
    takes {!Outbox.top} as a mark before the operation and drains the
    entries above it (see {!Outbox}).  An event handler may call
    {!accept}, {!hangup} or {!originate} on the same endpoint while it
    drains: those entries land above the caller's.

    The cursor form throughout: {!on_wire} reads each SSCOP frame where it
    lies, checks the Q.93B message in it with {!Sigmsg.check_at} and runs
    the call's FSM on the [*_at] readers; every message sent is written
    straight into the frame {!Sscop.reserve} keeps for retransmission.
    Each frame in the outbox is fresh (a data frame is also the one SSCOP
    keeps), so the caller must not change it; a
    {!Outbox.Call_offered} event points at the SETUP in the frame it
    arrived in.  Once the tables have grown, a call's lifecycle
    allocates nothing but its frames (a protocol error formats its
    reason).

    Each call is a row of int columns (call reference, FSM state,
    supervision timer and its retransmission count, which end originated
    it), found through a {!Ldlp_flowtable.Flat} table by call reference;
    its deadline sits in an unboxed float array, and a call this end
    originated keeps its SETUP's elements, encoded, in one more array,
    the only heap value a call holds.  Released rows are reused.

    An endpoint is domain-local: the first call to an operation that
    looks a call up ({!originate}, {!abort}, {!accept}, {!hangup},
    {!call_state}, a delivery through {!on_wire}, an expiry in {!tick})
    claims it for the calling domain, and any such call from another
    domain raises [Invalid_argument]. *)

type t

val create : ?sscop:Sscop_conn.config -> unit -> t
(** T303 = 4 s, T308 = 30 s (Q.93B's values). *)

val outbox : t -> Outbox.t
(** Where every operation below leaves its frames and events. *)

val link_up : t -> now:float -> unit
(** Originate the SSCOP connection.  Calls can be placed once
    {!Outbox.Link_up} has been reported. *)

val link_ready : t -> bool

val originate :
  t ->
  now:float ->
  call_ref:int ->
  bytes ->
  (unit, [ `Link_down | `Busy_ref ]) result
(** [originate t ~now ~call_ref ies] places a call: sends SETUP
    (assured) carrying [ies], information elements as {!Ie.encode} writes
    them, and arms T303.  The call keeps [ies] for a retransmission, not
    a copy: the caller must not change them.  Raises [Invalid_argument]
    on a reference outside 23 bits. *)

val abort : t -> call_ref:int -> bool
(** Drop all local state for a call without signalling the peer: no
    RELEASE, no events, supervision timer disarmed.  For a retry engine
    abandoning an attempt it has already given up on (the peer's
    half-open state, if any, dies with its own timers).  Returns whether
    the call existed. *)

val accept : t -> now:float -> call_ref:int -> (unit, [ `No_call ]) result
(** Answer a call previously reported by {!Outbox.Call_offered}. *)

val hangup : t -> now:float -> call_ref:int -> (unit, [ `No_call ]) result
(** Clear a call: sends RELEASE, arms T308. *)

val on_wire : t -> now:float -> bytes -> int -> int -> unit
(** [on_wire t ~now buf off len] processes the SSCOP frame in the [len]
    bytes at [off] from the link. *)

val tick : t -> now:float -> unit
(** Fire due timers (SSCOP polls/retransmissions, T303, T308). *)

val next_deadline : t -> float
(** The earliest armed timer, SSCOP's or a call's T303/T308; [infinity]
    when none is armed.  A loop over the rows' deadlines, inlined where
    it is called, so the result is not boxed. *)

val call_state : t -> call_ref:int -> Fsm.state option

val active_calls : t -> int
