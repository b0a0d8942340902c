(** A miniature TCP/IP host: the full receive-and-acknowledge stack of the
    paper's Section 2 (Ethernet input, IP input, TCP input with socket
    buffers, and the ACK transmit path), packaged as {!Ldlp_core} layers so
    it can run under conventional or LDLP scheduling unchanged.

    The host consumes raw Ethernet frames (as mbuf chains) and produces
    raw Ethernet frames (ACKs, SYN-ACKs, RSTs) through the stack's
    downward sink.

    The receive-and-ACK path allocates only what it hands out.  The layers
    read headers in place, count into mutable fields, and answer with the
    static {!Ldlp_core.Layer.up_only}/{!Ldlp_core.Layer.consume_only}, or
    [[Consume; Send_down reply]] when the TCP layer answers a segment;
    {!Tcp_input} writes each segment's result into one scratch outcome per
    host; and every frame the host transmits (replies, {!send},
    {!connect}, retransmissions, delayed ACKs and {!client_frame}) comes
    from {!Tcp_output.frame}, which copies the payload once into pooled
    mbufs and writes all three headers into their leading space. *)

type t

type item = { mutable buf : Ldlp_buf.Mbuf.t; mutable src_ip : Ldlp_packet.Addr.Ipv4.t }
(** What flows through the stack: the frame (headers stripped as it
    climbs) plus the IP source recorded by the IP layer for TCP's
    pseudo-header.  Per-message state must live in the payload — a blocked
    (LDLP) schedule runs a whole batch through one layer before the next
    layer sees any of it, so side-channels through the stack object would
    be overwritten. *)

val create :
  pool:Ldlp_buf.Pool.t ->
  ?msg_pool:item Ldlp_core.Msg.pool ->
  mac:Ldlp_packet.Addr.Mac.t ->
  ip:Ldlp_packet.Addr.Ipv4.t ->
  ?gateway_mac:Ldlp_packet.Addr.Mac.t ->
  ?reassemble:bool ->
  unit ->
  t
(** [gateway_mac] is the destination of every transmitted frame (no ARP;
    default the broadcast address).  With [reassemble] (default false —
    the paper's traced fast path drops fragments), the IP layer runs the
    {!Ldlp_packet.Reasm} slow path, using message arrival times as the
    reassembly clock.

    [msg_pool], when given, makes the host draw the messages it
    originates (reply/recovery frames in the TCP layer) from that pool
    instead of copying the incoming message, and makes {!duplex} release
    every message back to it at the wire and consume sinks.  The caller
    then owns the ownership discipline: inject only messages acquired
    from the same pool, and release any message it sheds or that leaves
    through its own sinks (see DESIGN.md, "Message-pool ownership"). *)

val listen : t -> port:int -> Pcb.t
(** Open a listening socket; incoming connections clone it.  Raises
    [Invalid_argument] if the port is taken or outside [[0, 65535]]. *)

val layers : t -> item Ldlp_core.Layer.t list
(** The stack, bottom-first: ether, ip, tcp.  Under an
    {!Ldlp_core.Engine.rx_chain}, feed frames with [Engine.inject ~node:0]
    (wrap them with {!wrap}); transmitted frames appear at the engine's
    [down] sink as complete Ethernet frames. *)

val wrap : t -> Ldlp_buf.Mbuf.t -> item

val duplex :
  t ->
  discipline:Ldlp_core.Engine.discipline ->
  ?wire:(Ldlp_buf.Mbuf.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:(item Ldlp_core.Msg.t -> unit) ->
  unit ->
  item Ldlp_core.Engine.t
(** Both directions of {!layers} under one {!Ldlp_core.Engine.duplex}
    instance: inject received frames at
    {!Ldlp_core.Engine.duplex_rx_entry}, submit outbound frames (from
    {!send}/{!connect}, already complete) at
    {!Ldlp_core.Engine.duplex_tx_entry}; [wire] receives every frame
    leaving the bottom transmit node.  Replies the TCP layer generates
    while draining a receive batch cross into the transmit nodes of the
    {e same} scheduling pass, so a receive batch's ACKs descend as one
    transmit batch (cross-direction amortisation).  The wire frames are
    byte-identical to the {!layers}-under-{!Ldlp_core.Engine.rx_chain}
    arrangement.

    When the host was created with a [msg_pool], messages are released
    back to it after [wire] returns and when a layer consumes them;
    [on_shed] messages are {e not} released (the injection never entered
    the engine — the caller still owns it). *)

val table : t -> Pcb.table

val ip : t -> Ldlp_packet.Addr.Ipv4.t

type counters = {
  frames_in : int;
  non_ip : int;
  non_tcp : int;
  bad_ip : int;
  delivered_bytes : int;
  retransmits : int;  (** Segments re-sent by timeout or fast retransmit. *)
  timeout_drops : int;
      (** Connections dropped by the retransmission timer (see
          {!attach_timers}). *)
}

val counters : t -> counters
(** A snapshot of the host's counters. *)

(** {1 Loss recovery}

    Without {!attach_timers} the host behaves exactly as before: no
    segment tracking, no timers, no retransmissions (lossless links need
    none and every frame would be acknowledged anyway). *)

val attach_timers :
  t ->
  now:(unit -> float) ->
  schedule:(float -> (unit -> unit) -> unit) ->
  tx:(Ldlp_buf.Mbuf.t -> unit) ->
  unit
(** Connect the host to a clock and event scheduler (typically
    {!Ldlp_sim.Engine} via {!Ldlp_netsim}), enabling loss recovery:

    - transmitted data segments, SYNs and SYN-ACKs are tracked on their
      PCB until acknowledged ({!Pcb.track} / {!Pcb.on_ack});
    - a retransmission timer per connection re-sends the oldest unacked
      segment when its {!Rto} deadline passes, with exponential backoff
      (armed on demand, so an idle host schedules nothing and the
      discrete-event engine can quiesce).  After 12 backoffs with no new
      data acknowledged (4.4BSD's [TCP_MAXRXTSHIFT]), the next expiry
      drops the connection ({!Pcb.drop}), arms nothing more and counts
      a [timeout_drops];
    - the third duplicate ACK triggers a fast retransmit;
    - delayed ACKs are bounded by a 40 ms timer instead of waiting
      indefinitely for a second segment.

    [schedule d k] must run [k] at [now () + d]; [tx] transmits a
    complete Ethernet frame (e.g. [Nic.transmit]). *)

val delack_timeout : float
(** Delayed-ACK bound, 0.04 s — below {!Rto.min_rto} so a delayed ACK can
    never masquerade as a loss. *)

val connect :
  t -> dst:Ldlp_packet.Addr.Ipv4.t * int -> src_port:int -> Pcb.t * Ldlp_buf.Mbuf.t
(** Active open: create a [Syn_sent] PCB and the SYN frame to transmit.
    The connection completes when the peer's SYN-ACK arrives through the
    receive stack. *)

val send : t -> Pcb.t -> bytes -> Ldlp_buf.Mbuf.t option
(** Application send: build a data segment (with PSH|ACK) on an
    established connection, advancing [snd_nxt].  The segment
    acknowledges everything received, so it settles any delayed ACK the
    connection owes, with or without timers.  Returns the complete
    Ethernet frame to transmit, or [None] if the connection cannot send
    (listening/closed). *)

(** {1 Client-side helpers (for tests, examples and benchmarks)} *)

val client_frame :
  t ->
  src_ip:Ldlp_packet.Addr.Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  flags:int ->
  ?payload:bytes ->
  unit ->
  Ldlp_buf.Mbuf.t
(** A complete, checksummed Ethernet+IP+TCP frame addressed to this host,
    as a client at [src_ip] (MAC 02:00:00:00:00:aa, IP identification 0,
    window 8760) would send it. *)

val parse_tx :
  t -> item -> (Ldlp_packet.Tcp.header * bytes) option
(** Decode a frame the host transmitted (for driving handshakes in
    tests); frees the chain. *)
