(** TCP receive processing — the paper's Table 2 path as an executable
    state machine.

    Follows the structure of 4.4BSD [tcp_input] that the paper traces:
    checksum verification, PCB lookup through the single-entry cache,
    a header-prediction fast path for in-order established-state data, and
    the 4.4BSD acknowledgment policy of one ACK for every second data
    segment (which is exactly the case the paper measures: "this TCP
    implementation sends an ACK for every second data packet").

    Sequence-space handling is deliberately minimal: out-of-order segments
    are dropped and re-acknowledged (no reassembly queue), which is enough
    for the locality experiments and keeps the state machine fully
    testable.  TCP options are accepted and skipped.

    The per-segment path allocates nothing of its own: sequence numbers
    are immediate ints, the payload goes from the mbuf straight into the
    socket buffer's ring, and the result is written into a caller-owned
    {!outcome} (one per host) instead of a fresh record. *)

type drop_reason =
  [ `Bad_checksum
  | `Parse_failed
  | `No_pcb  (** RST generated. *)
  | `Bad_state ]

type outcome = {
  mutable pcb : Pcb.t;
      (** The connection the segment reached (a new one for an accepted
          SYN), or {!Pcb.none}. *)
  mutable delivered : int;  (** Payload bytes appended to the socket buffer. *)
  mutable fastpath : bool;  (** Whether header prediction took the segment. *)
  mutable dropped : drop_reason option;
  mutable reply : bool;
      (** Whether the segment is answered.  No segment is answered twice,
          so the reply is the seven fields below. *)
  mutable reply_dst : Ldlp_packet.Addr.Ipv4.t;
  mutable reply_src_port : int;  (** Our port. *)
  mutable reply_dst_port : int;
  mutable reply_seq : int;
  mutable reply_ack : int;
  mutable reply_flags : int;
  mutable reply_window : int;
}
(** What one segment did: overwritten by every {!segment_arrived}. *)

val create_outcome : unit -> outcome

val initial_send_seq : int
(** ISS used for SYN-ACKs (fixed — no clock dependence, reproducible). *)

val segment_arrived :
  Pcb.table ->
  outcome ->
  my_ip:Ldlp_packet.Addr.Ipv4.t ->
  src_ip:Ldlp_packet.Addr.Ipv4.t ->
  pool:Ldlp_buf.Pool.t ->
  now:float ->
  Ldlp_buf.Mbuf.t ->
  unit
(** Process one TCP segment held in an mbuf chain (IP header already
    stripped), writing its result into the outcome.  The chain is
    consumed (freed).

    [now] is the arrival time used by the loss-recovery bookkeeping:
    incoming ACK values run through {!Pcb.on_ack} (releasing tracked
    segments, feeding the {!Rto} estimator under Karn's rule, and flagging
    a fast retransmit on the PCB after three duplicate ACKs), and a
    retransmitted SYN in [Syn_received] gets its SYN-ACK repeated.  With
    no tracked segments (no timers attached — see {!Host.attach_timers})
    all of this is inert. *)

type stats = { fastpath_hits : int; slowpath : int; acks_sent : int; drops : int }

val stats : unit -> stats
(** Per-domain counters (reset with {!reset_stats}) — each domain that
    runs hosts, such as a helper domain of a parallel soak, sees only its
    own hosts' counts; coarse but handy for examples and tests. *)

val reset_stats : unit -> unit
