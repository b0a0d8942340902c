(** A software signalling switch: the paper's motivating workload.

    Terminates Q.93B-style call control on each port, routes SETUPs by
    called-party address prefix, allocates a VPI/VCI on the outgoing link,
    and tears state down on RELEASE.  The performance goal from the paper's
    introduction — 10 000 setup/teardown pairs per second at ~100 us per
    message on a commodity CPU — is what the signalling example measures
    against.

    The switch is purely reactive: [handle] maps one incoming message to
    the messages to transmit.  It keeps per-call state for both half-calls
    (ingress and egress side).

    Each half-call is found by one packed integer key: the port, the
    call-reference flag that the peer's messages on that leg carry, and
    the 23-bit call reference.  The caller's messages (Up leg) carry
    [from_originator = true]; the callee's (Down leg, whose reference the
    switch allocated) carry [false].  Because the flag is part of the key,
    a call routed back out of its own ingress port with the same reference
    value (a hairpin) keeps two distinct legs.

    A call is one row of int columns (both leg keys, both half-calls' FSM
    states, the VCI and whether its connect was counted), numbered from a
    free list, and an {!Ldlp_flowtable.Flat} table maps both leg keys to
    the row.  No live call holds a heap block: a message allocates
    nothing for the lookup, and a switch holding thousands of calls gives
    the GC nothing to promote or follow. *)

type t

type stats = {
  setups_routed : int;
  calls_connected : int;
  calls_released : int;
  rejected : int;  (** SETUPs refused (no route / table full). *)
  protocol_errors : int;
}

val create :
  ?max_calls:int ->
  ?auto_answer:bool ->
  routes:(string * int) list ->
  local_port:int ->
  unit ->
  t
(** [routes] maps called-party address prefixes to output ports;
    [local_port] is where unmatched addresses terminate (the switch's own
    "host" side).  [max_calls] bounds the VC table (default 65536).
    With [auto_answer] (default false), calls that terminate on
    [local_port] are answered immediately by the switch itself — no
    downstream handshake — which is how the flood benchmarks exercise the
    full called-side exchange without a peer. *)

val handle : t -> port:int -> Sigmsg.t -> (int * Sigmsg.t) list
(** Process one incoming message, returning [(out_port, message)] pairs to
    transmit.  The message's leg is looked up by [(port, call_ref,
    from_originator)].  Unknown call references and FSM violations produce
    STATUS or RELEASE_COMPLETE per Q.93B custom and count as protocol
    errors; so does a SETUP whose call-reference flag says it came from
    the destination side.  Ports must lie in [[0, 2^38)]. *)

val active_calls : t -> int

val stats : t -> stats
(** A snapshot of the counters. *)

val vci_of_call : t -> call_ref:int -> (int * int) option
(** The VPI/VCI the switch allocated for a routed call, if connected. *)
