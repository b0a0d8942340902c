(** Protocol control blocks and their lookup table.

    The paper's traced path notes "the single-entry PCB cache hits" on its
    fast path; this table reproduces that structure: a table of
    connections keyed by (remote address, local port, remote port),
    fronted by a one-entry cache of the last connection that received a
    segment.  Statistics expose the cache hit rate so the fast-path
    behaviour is observable.

    Behind the cache, connected PCBs sit in an array of rows numbered
    from a free list, and {!Ldlp_flowtable.Flat} tables map a packed int
    key to the row: four of them, picked by the address's top two bits,
    each keyed by the address's other 30 bits and the two 16-bit ports.
    A lookup hashes one int and compares ints; it allocates nothing.
    Ports outside [[0, 65535]] are never in the table: listening on one
    or inserting one raises, and a lookup with one finds no connection.

    A table is domain-local, like a [Ldlp_core.Msg] pool: the first
    access past the cache (lookup, insert or drop) claims it for the
    calling domain, and such an access from any other domain raises
    [Invalid_argument].

    Sequence numbers are immediate ints in [[0, 2^32)] (see
    {!Ldlp_packet.Tcp.seq_add}), so a long-lived PCB holds no boxed
    [int32] for the minor GC to promote; the cache and the counters are
    mutable fields, and {!find} returns the sentinel {!none} rather than
    an option. *)

type state =
  | Listen
  | Syn_sent  (** Active open: SYN transmitted, awaiting SYN-ACK. *)
  | Syn_received
  | Established
  | Close_wait  (** Peer sent FIN; we still may deliver buffered data. *)
  | Closed

type seg = {
  seg_seq : int;
  seg_flags : int;
  seg_payload : bytes;
  mutable seg_sent_at : float;  (** Last (re)transmission time. *)
  mutable seg_rexmits : int;  (** Retransmissions so far (0 = original). *)
}
(** A sent-but-unacknowledged segment, as the retransmission machinery
    remembers it. *)

type t = {
  local_port : int;
  mutable remote : (Ldlp_packet.Addr.Ipv4.t * int) option;
      (** None while listening. *)
  mutable state : state;
  mutable irs : int;  (** Initial receive sequence number. *)
  mutable rcv_nxt : int;
  mutable snd_nxt : int;
  mutable snd_una : int;  (** Oldest unacknowledged sequence number. *)
  mutable delayed_ack : int;
      (** Segments received since the last ACK was sent; 4.4BSD acks every
          second data segment. *)
  sockbuf : Sockbuf.t;
  rto : Rto.t;  (** Per-connection timeout estimator. *)
  mutable retx : seg list;  (** Unacknowledged segments, oldest first. *)
  mutable dupacks : int;  (** Consecutive duplicate ACKs seen. *)
  mutable fast_retx_pending : bool;
      (** Set by the input path on the third duplicate ACK; the host's
          recovery driver consumes it. *)
  mutable rtx_armed : bool;  (** A retransmission timer event is scheduled. *)
  mutable delack_armed : bool;  (** A delayed-ACK timer event is scheduled. *)
}

type table

type stats = {
  lookups : int;  (** All connection lookups. *)
  cache_hits : int;  (** Served by the one-entry cache. *)
  table_hits : int;  (** Served by the flow table behind it. *)
  misses : int;
      (** Connection-table misses (including segments that then matched a
          listener: those took the slow demultiplexing path). *)
  allocated : int;
  freed : int;
}

val create_table : unit -> table

val listen : table -> port:int -> ?hiwat:int -> unit -> t
(** Install a listening PCB; raises [Invalid_argument] if the port is
    taken or outside [[0, 65535]]. *)

val none : t
(** The sentinel {!find} returns when no PCB matches (compare with [==]);
    it is never in a table. *)

val find :
  table -> local_port:int -> rip:Ldlp_packet.Addr.Ipv4.t -> rport:int -> t
(** Connection lookup with the one-entry cache: an exact match first (from
    cache, then table), else a listener on [local_port], else {!none}. *)

val lookup :
  table -> local_port:int -> remote:Ldlp_packet.Addr.Ipv4.t * int -> t option
(** {!find} as an option. *)

val insert_connection :
  table -> listener:t -> remote:Ldlp_packet.Addr.Ipv4.t * int -> t
(** Clone a listener into a connected PCB for [remote], replacing any
    PCB the table holds for that connection.  Raises [Invalid_argument]
    if the listener's port or the remote port is outside [[0, 65535]]. *)

val insert_active :
  table ->
  local_port:int ->
  remote:Ldlp_packet.Addr.Ipv4.t * int ->
  unit ->
  t
(** Active open: a [Syn_sent] PCB for an outgoing connection, with a
    16384-byte socket buffer.  Raises
    [Invalid_argument] if the (port, remote) pair is taken or a port is
    outside [[0, 65535]]. *)

val drop : table -> t -> unit
(** Remove a connected PCB (RST or full close) and mark it [Closed].  A
    PCB the table no longer holds (dropped already, or replaced) is only
    marked [Closed]. *)

val connections : table -> int

val stats : table -> stats
(** A snapshot of the counters. *)

val metrics_scalars : Ldlp_obs.Metrics.t -> table -> unit
(** Set the [flow.*] scalars (lookup split, allocation balance) and the
    [flow.table.*] scalars (the table behind the cache: [lookups],
    [found], [missing], [inserts], [removes], [entries]) on a sheet. *)

(** {1 Retransmission bookkeeping}

    Pure sequence-space accounting; the timers that drive it live in
    {!Host}. *)

val track : t -> now:float -> seq:int -> flags:int -> bytes -> unit
(** Remember a transmitted segment for retransmission (no-op if a segment
    with that sequence number is already tracked). *)

val unacked : t -> int
(** Tracked segments not yet acknowledged. *)

val oldest_unacked : t -> seg option

type ack_class =
  | Ack_new of float option
      (** Acknowledged new data; tracked segments it covers were released
          and [snd_una] advanced.  Carries an RTT sample when a covered
          segment had never been retransmitted (Karn's rule). *)
  | Ack_duplicate  (** ACK for exactly [snd_una] — a potential dup-ACK. *)
  | Ack_old  (** Outside the window; ignore. *)

val on_ack : t -> now:float -> int -> ack_class
(** Process an incoming ACK value against the retransmission queue.  On
    new data: releases covered segments, resets [dupacks] and the RTO
    backoff.  With nothing tracked it allocates nothing: new data is the
    constant [Ack_new None]. *)
