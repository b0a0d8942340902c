module Tcp = Ldlp_packet.Tcp
module Mbuf = Ldlp_buf.Mbuf

type drop_reason = [ `Bad_checksum | `Parse_failed | `No_pcb | `Bad_state ]

type outcome = {
  mutable pcb : Pcb.t;
  mutable delivered : int;
  mutable fastpath : bool;
  mutable dropped : drop_reason option;
  mutable reply : bool;
  mutable reply_dst : Ldlp_packet.Addr.Ipv4.t;
  mutable reply_src_port : int;
  mutable reply_dst_port : int;
  mutable reply_seq : int;
  mutable reply_ack : int;
  mutable reply_flags : int;
  mutable reply_window : int;
}

let create_outcome () =
  {
    pcb = Pcb.none;
    delivered = 0;
    fastpath = false;
    dropped = None;
    reply = false;
    reply_dst = Ldlp_packet.Addr.Ipv4.of_int32 0l;
    reply_src_port = 0;
    reply_dst_port = 0;
    reply_seq = 0;
    reply_ack = 0;
    reply_flags = 0;
    reply_window = 0;
  }

type stats = { fastpath_hits : int; slowpath : int; acks_sent : int; drops : int }

type counters = {
  mutable n_fastpath : int;
  mutable n_slowpath : int;
  mutable n_acks : int;
  mutable n_drops : int;
}

(* Per-domain counters (Domain.DLS): a parallel soak ([Soak.run_all])
   runs tcpmini hosts on several domains at once, and a shared record
   here would be both racy and misleading (counts smeared across
   scenarios).  Each domain sees exactly its own hosts' counts;
   [stats]/[reset_stats] act on the calling domain. *)
let counters_key =
  Domain.DLS.new_key (fun () ->
      { n_fastpath = 0; n_slowpath = 0; n_acks = 0; n_drops = 0 })

let counters () = Domain.DLS.get counters_key

let stats () =
  let c = counters () in
  {
    fastpath_hits = c.n_fastpath;
    slowpath = c.n_slowpath;
    acks_sent = c.n_acks;
    drops = c.n_drops;
  }

let reset_stats () =
  let c = counters () in
  c.n_fastpath <- 0;
  c.n_slowpath <- 0;
  c.n_acks <- 0;
  c.n_drops <- 0

let slowpath () =
  let c = counters () in
  c.n_slowpath <- c.n_slowpath + 1

let initial_send_seq = 1000

let drop o pcb reason =
  let c = counters () in
  c.n_drops <- c.n_drops + 1;
  o.pcb <- pcb;
  o.dropped <- Some reason

(* The input path reads segment fields in place off the pulled-up mbuf
   (no intermediate [Tcp.header] record), so the state machine below
   takes the fields it actually uses as scalars: [seg_src_port], [seq],
   [ack] and [flags] of the arriving segment, and its payload as the
   [len] bytes at offset [pos] of the chain [m]. *)

let reply o ~src_ip ~seg_src_port (pcb : Pcb.t) ~flags =
  let c = counters () in
  c.n_acks <- c.n_acks + 1;
  o.reply <- true;
  o.reply_dst <- src_ip;
  o.reply_src_port <- pcb.Pcb.local_port;
  o.reply_dst_port <- seg_src_port;
  o.reply_seq <- pcb.Pcb.snd_nxt;
  o.reply_ack <- pcb.Pcb.rcv_nxt;
  o.reply_flags <- flags;
  o.reply_window <- Sockbuf.space pcb.Pcb.sockbuf

(* RST in answer to a segment for which no connection exists (RFC 793's
   reset generation for the CLOSED state). *)
let rst_for o ~src_ip ~seg_src_port ~seq ~ack ~seg_flags ~dst_port ~payload_len =
  if seg_flags land Tcp.flag_rst = 0 then begin
    o.reply <- true;
    o.reply_dst <- src_ip;
    o.reply_src_port <- dst_port;
    o.reply_dst_port <- seg_src_port;
    o.reply_window <- 0;
    if seg_flags land Tcp.flag_ack <> 0 then begin
      o.reply_seq <- ack;
      o.reply_ack <- 0;
      o.reply_flags <- Tcp.flag_rst
    end
    else begin
      o.reply_seq <- 0;
      o.reply_ack <-
        Tcp.seq_add seq
          (payload_len + if seg_flags land Tcp.flag_syn <> 0 then 1 else 0);
      o.reply_flags <- Tcp.flag_rst lor Tcp.flag_ack
    end
  end

(* Run an incoming ACK value through the retransmission queue.  A pure
   ACK for [snd_una] while data is outstanding is a dup-ACK; the third in
   a row requests a fast retransmit (flagged on the PCB — the host's
   recovery driver, when timers are attached, emits the segment). *)
let process_ack pcb ~now ~ack ~seg_flags ~len =
  if seg_flags land Tcp.flag_ack <> 0 then
    match Pcb.on_ack pcb ~now ack with
    | Pcb.Ack_new (Some sample) -> Rto.observe pcb.Pcb.rto sample
    | Pcb.Ack_new None -> ()
    | Pcb.Ack_duplicate
      when len = 0 && pcb.Pcb.retx <> []
           && seg_flags land (Tcp.flag_syn lor Tcp.flag_fin) = 0 ->
      pcb.Pcb.dupacks <- pcb.Pcb.dupacks + 1;
      if pcb.Pcb.dupacks = 3 then pcb.Pcb.fast_retx_pending <- true
    | Pcb.Ack_duplicate | Pcb.Ack_old -> ()

let established_input table o ~src_ip ~now pcb ~seg_src_port ~seq ~ack
    ~seg_flags m ~pos ~len =
  o.pcb <- pcb;
  if seg_flags land Tcp.flag_rst <> 0 then Pcb.drop table pcb
  else if
    (* Header prediction (the 4.4BSD fast path the paper's trace hits):
       established state, nothing but ACK/PSH set, exactly the expected
       sequence number, data present, room in the buffer. *)
    pcb.Pcb.state = Pcb.Established
    && seg_flags land lnot (Tcp.flag_ack lor Tcp.flag_psh) = 0
    && seq = pcb.Pcb.rcv_nxt
    && len > 0
    && Sockbuf.space pcb.Pcb.sockbuf >= len
  then begin
    (let c = counters () in
     c.n_fastpath <- c.n_fastpath + 1);
    process_ack pcb ~now ~ack ~seg_flags ~len;
    let accepted = Sockbuf.append_mbuf pcb.Pcb.sockbuf m ~pos ~len in
    pcb.Pcb.rcv_nxt <- Tcp.seq_add pcb.Pcb.rcv_nxt accepted;
    pcb.Pcb.delayed_ack <- pcb.Pcb.delayed_ack + 1;
    if pcb.Pcb.delayed_ack >= 2 then begin
      pcb.Pcb.delayed_ack <- 0;
      reply o ~src_ip ~seg_src_port pcb ~flags:Tcp.flag_ack
    end;
    o.delivered <- accepted;
    o.fastpath <- true
  end
  else begin
    slowpath ();
    process_ack pcb ~now ~ack ~seg_flags ~len;
    (* Slow path: in-order FIN, out-of-order data, window probes... *)
    let in_order = seq = pcb.Pcb.rcv_nxt in
    let delivered =
      if in_order && len > 0 && pcb.Pcb.state = Pcb.Established then begin
        let accepted = Sockbuf.append_mbuf pcb.Pcb.sockbuf m ~pos ~len in
        pcb.Pcb.rcv_nxt <- Tcp.seq_add pcb.Pcb.rcv_nxt accepted;
        accepted
      end
      else 0
    in
    let fin_processed =
      in_order
      && seg_flags land Tcp.flag_fin <> 0
      && pcb.Pcb.state = Pcb.Established
      && delivered = len
    in
    if fin_processed then begin
      pcb.Pcb.rcv_nxt <- Tcp.seq_add pcb.Pcb.rcv_nxt 1;
      pcb.Pcb.state <- Pcb.Close_wait
    end;
    (* The slow path acknowledges immediately — duplicate and out-of-order
       segments trigger the classic dup-ACK — but only segments that
       occupy sequence space.  A pure ACK must never be ACKed back, or two
       hosts volley acknowledgments forever. *)
    let occupies =
      len > 0
      || seg_flags land Tcp.flag_syn <> 0
      || seg_flags land Tcp.flag_fin <> 0
    in
    if occupies then begin
      pcb.Pcb.delayed_ack <- 0;
      reply o ~src_ip ~seg_src_port pcb ~flags:Tcp.flag_ack
    end;
    o.delivered <- delivered
  end

(* The state machine proper, on a segment whose header has been
   validated; the caller frees [m] afterwards. *)
let input table o ~src_ip ~now ~seg_src_port ~dst_port ~seq ~ack ~seg_flags m
    ~pos ~len =
  let pcb = Pcb.find table ~local_port:dst_port ~rip:src_ip ~rport:seg_src_port in
  if pcb == Pcb.none then begin
    drop o Pcb.none `No_pcb;
    rst_for o ~src_ip ~seg_src_port ~seq ~ack ~seg_flags ~dst_port ~payload_len:len
  end
  else
    match pcb.Pcb.state with
    | Pcb.Listen ->
      if seg_flags land Tcp.flag_syn <> 0 && seg_flags land Tcp.flag_ack = 0
      then begin
        slowpath ();
        let conn =
          Pcb.insert_connection table ~listener:pcb ~remote:(src_ip, seg_src_port)
        in
        conn.Pcb.irs <- seq;
        conn.Pcb.rcv_nxt <- Tcp.seq_add seq 1;
        conn.Pcb.snd_nxt <- initial_send_seq;
        conn.Pcb.snd_una <- initial_send_seq;
        reply o ~src_ip ~seg_src_port conn ~flags:(Tcp.flag_syn lor Tcp.flag_ack);
        conn.Pcb.snd_nxt <- Tcp.seq_add conn.Pcb.snd_nxt 1;
        o.pcb <- conn
      end
      else begin
        drop o pcb `Bad_state;
        rst_for o ~src_ip ~seg_src_port ~seq ~ack ~seg_flags ~dst_port
          ~payload_len:len
      end
    | Pcb.Syn_received ->
      slowpath ();
      if seg_flags land Tcp.flag_rst <> 0 then begin
        Pcb.drop table pcb;
        o.pcb <- pcb
      end
      else if seg_flags land Tcp.flag_ack <> 0 && ack = pcb.Pcb.snd_nxt then begin
        process_ack pcb ~now ~ack ~seg_flags ~len;
        pcb.Pcb.state <- Pcb.Established;
        o.pcb <- pcb;
        (* The handshake ACK may carry data; reprocess it through the
           established path. *)
        if len > 0 then
          established_input table o ~src_ip ~now pcb ~seg_src_port ~seq ~ack
            ~seg_flags m ~pos ~len
      end
      else if
        seg_flags land Tcp.flag_syn <> 0
        && seg_flags land Tcp.flag_ack = 0
        && seq = pcb.Pcb.irs
      then begin
        (* Retransmitted SYN: our SYN-ACK was lost; repeat it with the
           original sequence number (snd_nxt already consumed it). *)
        reply o ~src_ip ~seg_src_port pcb ~flags:(Tcp.flag_syn lor Tcp.flag_ack);
        o.reply_seq <- Tcp.seq_add pcb.Pcb.snd_nxt (-1);
        o.pcb <- pcb
      end
      else drop o pcb `Bad_state
    | Pcb.Syn_sent ->
      slowpath ();
      if seg_flags land Tcp.flag_rst <> 0 then begin
        Pcb.drop table pcb;
        o.pcb <- pcb
      end
      else if
        seg_flags land Tcp.flag_syn <> 0
        && seg_flags land Tcp.flag_ack <> 0
        && ack = pcb.Pcb.snd_nxt
      then begin
        (* Active open completes: record the server's ISN and ack it. *)
        process_ack pcb ~now ~ack ~seg_flags ~len:0;
        pcb.Pcb.irs <- seq;
        pcb.Pcb.rcv_nxt <- Tcp.seq_add seq 1;
        pcb.Pcb.state <- Pcb.Established;
        reply o ~src_ip ~seg_src_port pcb ~flags:Tcp.flag_ack;
        o.pcb <- pcb
      end
      else drop o pcb `Bad_state
    | Pcb.Established | Pcb.Close_wait ->
      established_input table o ~src_ip ~now pcb ~seg_src_port ~seq ~ack
        ~seg_flags m ~pos ~len
    | Pcb.Closed -> drop o pcb `Bad_state

let segment_arrived table o ~my_ip ~src_ip ~pool ~now m =
  o.pcb <- Pcb.none;
  o.delivered <- 0;
  o.fastpath <- false;
  o.dropped <- None;
  o.reply <- false;
  if not (Tcp.verify_checksum ~src:src_ip ~dst:my_ip m) then begin
    Mbuf.free pool m;
    drop o Pcb.none `Bad_checksum
  end
  else begin
    let seg_len = Mbuf.length m in
    let m = Mbuf.pullup pool m (Int.min seg_len Tcp.header_bytes) in
    (* Options are pulled up with the header and skipped. *)
    let hdr_len = Tcp.check_at (Mbuf.seg_data m) (Mbuf.seg_off m) seg_len in
    if hdr_len < 0 then begin
      Mbuf.free pool m;
      drop o Pcb.none `Parse_failed
    end
    else begin
      let m = Mbuf.pullup pool m hdr_len in
      let buf = Mbuf.seg_data m and boff = Mbuf.seg_off m in
      input table o ~src_ip ~now ~seg_src_port:(Tcp.src_port_at buf boff)
        ~dst_port:(Tcp.dst_port_at buf boff) ~seq:(Tcp.seq_at buf boff)
        ~ack:(Tcp.ack_at buf boff) ~seg_flags:(Tcp.flags_at buf boff) m
        ~pos:hdr_len ~len:(seg_len - hdr_len);
      Mbuf.free pool m
    end
  end
