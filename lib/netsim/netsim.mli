(** A simulated network: hosts' adaptors wired by point-to-point links
    with latency, driven by the discrete-event engine.

    Each node owns a {!Ldlp_nic.Nic} and a service callback (its device
    driver + protocol stack).  When a frame reaches a node's receive ring
    and raises an interrupt, the node's service is scheduled after its
    interrupt latency; whatever the service leaves in the transmit ring is
    propagated over the node's link after the link latency.  This closes
    the loop the paper's Section 4 simulator models implicitly: arrival
    buffering in the adaptor, batch intake, and the transmit path back to
    the wire. *)

type 'a t

type 'a node

val create : unit -> 'a t

val engine : 'a t -> Ldlp_sim.Engine.t

val add_node :
  'a t ->
  name:string ->
  ?nic:'a Ldlp_nic.Nic.t ->
  ?irq_latency:float ->
  ?holdoff:float ->
  ?metrics:Ldlp_obs.Metrics.t ->
  service:('a Ldlp_nic.Nic.t -> unit) ->
  unit ->
  'a node
(** [service nic] is called when the node's interrupt fires; it should
    drain the receive ring (e.g. {!Ldlp_nic.Nic.take_all}, or
    {!Ldlp_nic.Nic.service_into} an {!Ldlp_core.Engine}), run its stack,
    and queue any replies with {!Ldlp_nic.Nic.transmit}.  Default NIC:
    64-slot rings, per-frame interrupts.  Default [irq_latency] 5 us.

    [holdoff] (default 100 us) is the interrupt-holdoff timer real
    adaptors pair with coalescing: if frames sit in the receive ring
    without having reached the coalescing threshold, the service runs
    after this delay anyway, so a lone packet is never stranded.

    [metrics], while the {!Ldlp_obs.Obs} gate is on, wraps every service
    invocation in a ["service:<name>"] span (host wall clock and
    allocation) and counts frames the node's link dropped in the
    ["link_lost"] scalar.  Attach the same sheet to the node's NIC to see
    its ring counters alongside. *)

val nic : 'a node -> 'a Ldlp_nic.Nic.t

val name : 'a node -> string

val connect :
  'a t ->
  'a node ->
  'a node ->
  latency:float ->
  ?loss:float ->
  ?seed:int ->
  ?impair_ab:'a Ldlp_fault.Impair.t ->
  ?impair_ba:'a Ldlp_fault.Impair.t ->
  unit ->
  unit
(** Bidirectional point-to-point link.  A node has at most one link
    (hosts-on-a-wire; build switches as nodes that retransmit).  [loss]
    (default 0) drops each frame independently with that probability,
    using a deterministic PRNG seeded by [seed] — for exercising the
    timer-driven recovery of the protocols above.  Raises
    [Invalid_argument] if either end is already connected.

    [impair_ab] / [impair_ba] attach a {!Ldlp_fault.Impair} engine to
    each direction (a->b and b->a respectively): every transmitted frame
    passes through it, picking up drops, duplication, bit corruption,
    reordering, jitter and down episodes per its plan.  Netsim keeps a
    flush event armed at the engine's earliest hold deadline so reordered
    frames are never stranded, and returns frames refused by a full
    receive ring to the engine's [free] hook. *)

val inject : 'a t -> 'a node -> ?at:float -> 'a -> unit
(** Deliver a frame into a node's receive ring from outside the simulated
    topology (a traffic source), at absolute time [at] (default: now). *)

val pump : 'a t -> 'a node -> unit
(** Propagate whatever is in the node's transmit ring over its link now.
    Netsim pumps automatically after each interrupt service; call this
    when frames were queued outside one (application sends, timer
    callbacks). *)

val kick : 'a t -> 'a node -> unit
(** Schedule a node's service unconditionally (e.g. after application-level
    sends placed frames in its transmit ring outside an interrupt). *)

val run : ?until:float -> 'a t -> unit
(** Run the event loop until quiescent (or the horizon). *)
