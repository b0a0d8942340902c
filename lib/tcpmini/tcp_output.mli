(** TCP segment transmission (the [tcp_output]/[ip_output]/[ether_output]
    half of the paper's traced path, reduced to what the host sends: ACKs,
    SYNs, SYN-ACKs, RSTs and small data segments).

    The one frame builder behind every transmit site of {!Host}.  It copies
    the payload once, into a fresh chain from the mbuf pool, then writes
    the TCP header, its checksum (summed over the chain where the payload
    lies), and the IPv4 and Ethernet headers into the head mbuf's leading
    space: no scratch segment, no header records, no second copy.  The
    frame is byte-identical to what {!Ldlp_packet.Tcp.build} +
    {!Ldlp_packet.Tcp.checksum}, {!Ldlp_packet.Ipv4.encapsulate} and
    {!Ldlp_packet.Ethernet.encapsulate} produce (property-tested). *)

val frame :
  Ldlp_buf.Pool.t ->
  eth_src:Ldlp_packet.Addr.Mac.t ->
  eth_dst:Ldlp_packet.Addr.Mac.t ->
  src:Ldlp_packet.Addr.Ipv4.t ->
  dst:Ldlp_packet.Addr.Ipv4.t ->
  ident:int ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  flags:int ->
  window:int ->
  bytes ->
  Ldlp_buf.Mbuf.t
(** A complete Ethernet frame carrying one TCP segment over an option-free
    IPv4 header (don't-fragment, TTL 64) with identification [ident].
    [window] is clamped to 0xFFFF (no window scaling); [seq] and [ack]
    are taken modulo 2^32. *)
