(** A simulated network adaptor: bounded receive and transmit
    descriptor rings plus an interrupt model.  Each ring is a
    {!Ldlp_core.Rqueue} bounded at its slot count: a push to a full ring
    is refused and counted as a drop, never blocked — the behaviour the
    paper assumes when it says "when messages arrive, they are buffered
    in the adaptor hardware".

    The paper's on-line LDLP algorithm assumes the adaptor buffers
    arriving messages and the stack periodically "takes all available
    messages".  This module provides that boundary, including the
    interrupt-coalescing knob that determines how many frames a single
    service opportunity sees — under light load one interrupt per frame
    (no batching, minimal latency), under heavy load the ring fills
    between services and LDLP gets its batch for free. *)

type irq_mode =
  | Per_frame  (** Raise an interrupt on every received frame. *)
  | Coalesced of int
      (** Raise after every N frames (or when the ring fills). *)

type 'a t

type stats = {
  rx_frames : int;
  rx_drops : int;  (** Frames refused because the RX ring was full. *)
  tx_frames : int;
  tx_drops : int;
  interrupts : int;
}

val create :
  ?rx_slots:int ->
  ?tx_slots:int ->
  ?irq:irq_mode ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  'a t
(** Defaults: 64-slot rings, [Per_frame] interrupts.  Raises
    [Invalid_argument] on a non-positive slot count or coalescing
    factor.

    [metrics] (no layer rows needed) receives, while the {!Ldlp_obs.Obs}
    gate is on: the "rx_frames"/"rx_drops"/"tx_frames"/"tx_drops"/
    "interrupts" scalars mirroring {!stats}, RX-ring occupancy as the
    entry-queue depth histogram, and {!take_all} service batch sizes as
    the batch histogram. *)

(** {1 Wire side} *)

val deliver : 'a t -> 'a -> bool
(** A frame arrives from the wire; [false] = dropped (ring full). *)

val wire_take : 'a t -> 'a option
(** The wire drains one transmitted frame. *)

val wire_take_all : 'a t -> 'a list

(** {1 Host side} *)

val irq_pending : 'a t -> bool

val ack_irq : 'a t -> unit

val rx_available : 'a t -> int

val take_all : 'a t -> 'a list
(** Service the receive ring: everything buffered, FIFO — the LDLP
    intake.  Also acknowledges the interrupt. *)

val take : 'a t -> 'a option
(** Take a single frame (conventional per-packet servicing). *)

val transmit : 'a t -> 'a -> bool
(** Queue a frame for transmission; [false] = TX ring full (dropped). *)

val stats : 'a t -> stats

(** {1 Driver glue} *)

val service_into :
  'a t ->
  'b Ldlp_core.Engine.t ->
  node:int ->
  wrap:('a -> 'b Ldlp_core.Msg.t) ->
  int
(** Move every buffered RX frame into an engine's entry queue [node]
    (the device driver's "bottom half"); returns how many frames the
    engine accepted — frames it sheds under an [intake_limit] do not
    count.  With an LDLP discipline the engine then naturally processes
    them as a batch. *)
