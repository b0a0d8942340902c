module Pkt = Ldlp_packet
module Mbuf = Ldlp_buf.Mbuf

let frame pool ~eth_src ~eth_dst ~src ~dst ~ident ~src_port ~dst_port ~seq ~ack
    ~flags ~window payload =
  let m = Mbuf.get pool in
  Mbuf.append_bytes pool m payload;
  let m = Mbuf.prepend m Pkt.Tcp.header_bytes in
  let segment = Mbuf.length m in
  Pkt.Tcp.write ~src_port ~dst_port ~seq ~ack ~data_offset:5 ~flags
    ~window:(Int.min window 0xFFFF) ~urgent:0 (Mbuf.seg_data m) (Mbuf.seg_off m);
  Pkt.Tcp.store_chain_checksum ~src ~dst m;
  let m = Mbuf.prepend m Pkt.Ipv4.header_bytes in
  Pkt.Ipv4.write ~tos:0 ~total_length:(segment + Pkt.Ipv4.header_bytes) ~ident
    ~dont_fragment:true ~more_fragments:false ~fragment_offset:0 ~ttl:64
    ~protocol:Pkt.Ipv4.proto_tcp ~src ~dst (Mbuf.seg_data m) (Mbuf.seg_off m);
  let m = Mbuf.prepend m Pkt.Ethernet.header_bytes in
  Pkt.Ethernet.write ~dst:eth_dst ~src:eth_src
    ~ethertype:Pkt.Ethernet.ethertype_ipv4 (Mbuf.seg_data m) (Mbuf.seg_off m);
  m
