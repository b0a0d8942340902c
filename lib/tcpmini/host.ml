module Pkt = Ldlp_packet
module Mbuf = Ldlp_buf.Mbuf
module Core = Ldlp_core
module Metrics = Ldlp_obs.Metrics

type counters = {
  frames_in : int;
  non_ip : int;
  non_tcp : int;
  bad_ip : int;
  delivered_bytes : int;
  retransmits : int;
  timeout_drops : int;
}

type item = { mutable buf : Mbuf.t; mutable src_ip : Pkt.Addr.Ipv4.t }

type timers = {
  now : unit -> float;
  schedule : float -> (unit -> unit) -> unit;
  tx : Mbuf.t -> unit;
}

type t = {
  pool : Ldlp_buf.Pool.t;
  msg_pool : item Ldlp_core.Msg.pool option;
  mac : Pkt.Addr.Mac.t;
  my_ip : Pkt.Addr.Ipv4.t;
  gateway_mac : Pkt.Addr.Mac.t;
  pcbs : Pcb.table;
  reasm : Pkt.Reasm.t option;
  out : Tcp_input.outcome;  (* the TCP layer's per-segment scratch *)
  mutable n_frames_in : int;
  mutable n_non_ip : int;
  mutable n_non_tcp : int;
  mutable n_bad_ip : int;
  mutable n_delivered_bytes : int;
  mutable n_retransmits : int;
  mutable n_timeout_drops : int;
  mutable ident : int;
  mutable timers : timers option;
  (* Scalar mirrors of the counters on an attached metric sheet (dummy
     refs otherwise), bumped through the gated [Metrics.add_scalar]. *)
  frames_in_sc : int ref;
  non_ip_sc : int ref;
  non_tcp_sc : int ref;
  bad_ip_sc : int ref;
  delivered_bytes_sc : int ref;
  retransmits_sc : int ref;
}

let create ~pool ?msg_pool ~mac ~ip ?(gateway_mac = Pkt.Addr.Mac.broadcast)
    ?(reassemble = false) ?metrics () =
  let sc name =
    match metrics with None -> ref 0 | Some m -> Metrics.scalar m name
  in
  {
    pool;
    msg_pool;
    mac;
    my_ip = ip;
    gateway_mac;
    pcbs = Pcb.create_table ();
    reasm = (if reassemble then Some (Pkt.Reasm.create ()) else None);
    out = Tcp_input.create_outcome ();
    n_frames_in = 0;
    n_non_ip = 0;
    n_non_tcp = 0;
    n_bad_ip = 0;
    n_delivered_bytes = 0;
    n_retransmits = 0;
    n_timeout_drops = 0;
    ident = 0;
    timers = None;
    frames_in_sc = sc "frames_in";
    non_ip_sc = sc "non_ip";
    non_tcp_sc = sc "non_tcp";
    bad_ip_sc = sc "bad_ip";
    delivered_bytes_sc = sc "delivered_bytes";
    retransmits_sc = sc "retransmits";
  }

let wrap t m = { buf = m; src_ip = t.my_ip }

let listen t ~port = Pcb.listen t.pcbs ~port ()

let table t = t.pcbs

let ip t = t.my_ip

let counters t =
  {
    frames_in = t.n_frames_in;
    non_ip = t.n_non_ip;
    non_tcp = t.n_non_tcp;
    bad_ip = t.n_bad_ip;
    delivered_bytes = t.n_delivered_bytes;
    retransmits = t.n_retransmits;
    timeout_drops = t.n_timeout_drops;
  }

(* Every frame this host transmits is built here, by the one frame
   builder, with the next IP identification. *)
let frame t ~dst ~src_port ~dst_port ~seq ~ack ~flags ~window payload =
  t.ident <- (t.ident + 1) land 0xFFFF;
  Tcp_output.frame t.pool ~eth_src:t.mac ~eth_dst:t.gateway_mac ~src:t.my_ip
    ~dst ~ident:t.ident ~src_port ~dst_port ~seq ~ack ~flags ~window payload

let reply_frame t (o : Tcp_input.outcome) =
  frame t ~dst:o.Tcp_input.reply_dst ~src_port:o.Tcp_input.reply_src_port
    ~dst_port:o.Tcp_input.reply_dst_port ~seq:o.Tcp_input.reply_seq
    ~ack:o.Tcp_input.reply_ack ~flags:o.Tcp_input.reply_flags
    ~window:o.Tcp_input.reply_window Bytes.empty

(* ---------- loss recovery (only active once timers are attached) ---------- *)

let delack_timeout = 0.04

let attach_timers t ~now ~schedule ~tx = t.timers <- Some { now; schedule; tx }

(* Rebuild a tracked segment as a complete Ethernet frame.  The ACK field
   is refreshed to the current [rcv_nxt] (a retransmission carries the
   newest acknowledgment, like the real stack's output routine). *)
let seg_frame t (pcb : Pcb.t) (s : Pcb.seg) =
  match pcb.Pcb.remote with
  | None -> None
  | Some (rip, rport) ->
    let has_ack = s.Pcb.seg_flags land Pkt.Tcp.flag_ack <> 0 in
    Some
      (frame t ~dst:rip ~src_port:pcb.Pcb.local_port ~dst_port:rport
         ~seq:s.Pcb.seg_seq
         ~ack:(if has_ack then pcb.Pcb.rcv_nxt else 0)
         ~flags:s.Pcb.seg_flags
         ~window:(Sockbuf.space pcb.Pcb.sockbuf)
         s.Pcb.seg_payload)

let count_retransmit t =
  t.n_retransmits <- t.n_retransmits + 1;
  Metrics.add_scalar t.retransmits_sc 1

let retransmit_seg t pcb (s : Pcb.seg) ~now =
  match seg_frame t pcb s with
  | None -> None
  | Some frame ->
    s.Pcb.seg_sent_at <- now;
    s.Pcb.seg_rexmits <- s.Pcb.seg_rexmits + 1;
    count_retransmit t;
    Some frame

(* 4.4BSD's TCP_MAXRXTSHIFT: an expiry that finds the oldest segment
   already backed off this many times without an ACK of new data drops
   the connection instead of retransmitting again. *)
let max_rxt_shift = 12

(* The retransmission timer is armed on demand (a self-rescheduling tick
   would keep the discrete-event engine from ever quiescing): one event
   per PCB at the oldest unacked segment's deadline.  When it fires
   early — the queue head changed, or an ACK advanced [sent_at] — it
   simply re-arms. *)
let rec arm_rtx t (pcb : Pcb.t) =
  match t.timers with
  | None -> ()
  | Some tm ->
    if not pcb.Pcb.rtx_armed then begin
      match Pcb.oldest_unacked pcb with
      | None -> ()
      | Some s ->
        pcb.Pcb.rtx_armed <- true;
        let deadline = s.Pcb.seg_sent_at +. Rto.rto pcb.Pcb.rto in
        let delay = Float.max 0.0 (deadline -. tm.now ()) in
        tm.schedule delay (fun () -> rtx_fire t pcb)
    end

and rtx_fire t (pcb : Pcb.t) =
  pcb.Pcb.rtx_armed <- false;
  match t.timers with
  | None -> ()
  | Some tm -> (
    if pcb.Pcb.state <> Pcb.Closed then
      match Pcb.oldest_unacked pcb with
      | None -> ()
      | Some s ->
        let now = tm.now () in
        let due = s.Pcb.seg_sent_at +. Rto.rto pcb.Pcb.rto <= now +. 1e-9 in
        if due && Rto.backoff_count pcb.Pcb.rto >= max_rxt_shift then begin
          Pcb.drop t.pcbs pcb;
          t.n_timeout_drops <- t.n_timeout_drops + 1
        end
        else begin
          if due then begin
            (match retransmit_seg t pcb s ~now with
            | Some frame -> tm.tx frame
            | None -> ());
            Rto.backoff pcb.Pcb.rto
          end;
          arm_rtx t pcb
        end)

let arm_delack t (pcb : Pcb.t) =
  match t.timers with
  | None -> ()
  | Some tm ->
    if (not pcb.Pcb.delack_armed) && pcb.Pcb.delayed_ack > 0 then begin
      pcb.Pcb.delack_armed <- true;
      tm.schedule delack_timeout (fun () ->
          pcb.Pcb.delack_armed <- false;
          match pcb.Pcb.remote with
          | Some (rip, rport)
            when pcb.Pcb.delayed_ack > 0
                 && (pcb.Pcb.state = Pcb.Established
                    || pcb.Pcb.state = Pcb.Close_wait) ->
            pcb.Pcb.delayed_ack <- 0;
            tm.tx
              (frame t ~dst:rip ~src_port:pcb.Pcb.local_port ~dst_port:rport
                 ~seq:pcb.Pcb.snd_nxt ~ack:pcb.Pcb.rcv_nxt
                 ~flags:Pkt.Tcp.flag_ack
                 ~window:(Sockbuf.space pcb.Pcb.sockbuf)
                 Bytes.empty)
          | _ -> ())
    end

(* Track a transmitted segment and make sure the timer covers it. *)
let track_tx t (pcb : Pcb.t) ~seq ~flags payload =
  match t.timers with
  | None -> ()
  | Some tm ->
    Pcb.track pcb ~now:(tm.now ()) ~seq ~flags payload;
    arm_rtx t pcb

(* Post-input recovery hook, run after the TCP layer has processed a
   segment for [pcb]: keep the retransmission timer armed while data is
   outstanding, arm the delayed-ACK timer when an ACK is owed, and return
   the pending fast retransmit, if any. *)
let recovery_frame t (pcb : Pcb.t) ~now =
  let fast =
    if pcb.Pcb.fast_retx_pending then begin
      pcb.Pcb.fast_retx_pending <- false;
      match Pcb.oldest_unacked pcb with
      | None -> None
      | Some s -> retransmit_seg t pcb s ~now
    end
    else None
  in
  arm_rtx t pcb;
  arm_delack t pcb;
  fast

let send_down t msg frame =
  (* Outbound frames draw their message from the host's pool when one is
     attached (released again at the wire/consume sinks); without a pool,
     the pre-pooling copy-on-write behavior. *)
  let item = { buf = frame; src_ip = t.my_ip } in
  let size = Mbuf.length frame in
  Core.Layer.Send_down
    (match t.msg_pool with
    | Some mp -> Core.Msg.acquire mp ~arrival:msg.Core.Msg.arrival ~size item
    | None -> Core.Msg.with_payload msg item ~size)

(* The TCP layer's answer with timers attached: a SYN-ACK is tracked like
   data (it consumes sequence space and must survive loss), and the
   reply, if any, goes down before a fast retransmission. *)
let recovery_actions t msg (o : Tcp_input.outcome) =
  let reply =
    if o.Tcp_input.reply then begin
      if o.Tcp_input.reply_flags land Pkt.Tcp.flag_syn <> 0 && o.Tcp_input.pcb != Pcb.none
      then
        track_tx t o.Tcp_input.pcb ~seq:o.Tcp_input.reply_seq
          ~flags:o.Tcp_input.reply_flags Bytes.empty;
      Some (send_down t msg (reply_frame t o))
    end
    else None
  in
  let fast =
    if o.Tcp_input.pcb == Pcb.none then None
    else recovery_frame t o.Tcp_input.pcb ~now:msg.Core.Msg.arrival
  in
  match (reply, fast) with
  | None, None -> Core.Layer.consume_only
  | Some r, None -> [ Core.Layer.Consume; r ]
  | None, Some f -> [ Core.Layer.Consume; send_down t msg f ]
  | Some r, Some f -> [ Core.Layer.Consume; r; send_down t msg f ]

let layers t =
  let consume_bad m =
    Mbuf.free t.pool m;
    Core.Layer.consume_only
  in
  let ether =
    Core.Layer.v ~name:"ether"
      ~fp:(Core.Layer.footprint ~code_bytes:4480 ~data_bytes:864 ())
      (fun msg ->
        t.n_frames_in <- t.n_frames_in + 1;
        Metrics.add_scalar t.frames_in_sc 1;
        let m = msg.Core.Msg.payload.buf in
        if Mbuf.contiguous m Pkt.Ethernet.header_bytes then begin
          (* Cursor fast path: the header is in the head mbuf (always, for
             frames the NIC delivers), so filter and strip it in place —
             no header record, no MAC extraction. *)
          let buf = Mbuf.seg_data m and off = Mbuf.seg_off m in
          if
            Pkt.Ethernet.ethertype_at buf off = Pkt.Ethernet.ethertype_ipv4
            && (Pkt.Ethernet.dst_equal t.mac buf off
               || Pkt.Ethernet.dst_is_broadcast buf off)
          then begin
            Mbuf.adj m Pkt.Ethernet.header_bytes;
            Core.Layer.up_only
          end
          else begin
            t.n_non_ip <- t.n_non_ip + 1;
            Metrics.add_scalar t.non_ip_sc 1;
            consume_bad m
          end
        end
        else
          (* Record path: header split across mbufs, or a runt frame. *)
          match Pkt.Ethernet.strip m with
          | Ok h
            when h.Pkt.Ethernet.ethertype = Pkt.Ethernet.ethertype_ipv4
                 && (Pkt.Addr.Mac.equal h.Pkt.Ethernet.dst t.mac
                    || Pkt.Addr.Mac.is_broadcast h.Pkt.Ethernet.dst) ->
            Core.Layer.up_only
          | Ok _ | Error _ ->
            t.n_non_ip <- t.n_non_ip + 1;
            Metrics.add_scalar t.non_ip_sc 1;
            consume_bad m)
  in
  let ip_layer =
    Core.Layer.v ~name:"ip"
      ~fp:(Core.Layer.footprint ~code_bytes:2784 ~data_bytes:480 ())
      (fun msg ->
        let m = msg.Core.Msg.payload.buf in
        let len = Mbuf.length m in
        let fast =
          (* Cursor fast path: an option-free, unfragmented TCP datagram
             for this host whose header sits in the head mbuf — checked
             and stripped in place (same validation [Ipv4.strip] runs,
             including the checksum; over exactly [header_bytes],
             [check_at] passes only an option-free header).  Anything
             else falls through to the record path untouched; [check_at]
             mutates nothing. *)
          Mbuf.contiguous m Pkt.Ipv4.header_bytes
          &&
          let buf = Mbuf.seg_data m and off = Mbuf.seg_off m in
          Pkt.Ipv4.check_at buf off Pkt.Ipv4.header_bytes > 0
          && Pkt.Ipv4.protocol_at buf off = Pkt.Ipv4.proto_tcp
          && Pkt.Ipv4.frag_at buf off land 0x3FFF = 0
          && Pkt.Ipv4.dst_equal t.my_ip buf off
          && Pkt.Ipv4.total_length_at buf off <= len
        in
        if fast then begin
          let buf = Mbuf.seg_data m and off = Mbuf.seg_off m in
          let total_length = Pkt.Ipv4.total_length_at buf off in
          msg.Core.Msg.payload.src_ip <- Pkt.Ipv4.src_at buf off;
          (* Drop link padding, then the header itself — as [strip]. *)
          if len > total_length then Mbuf.adj m (-(len - total_length));
          Mbuf.adj m Pkt.Ipv4.header_bytes;
          Core.Layer.up_only
        end
        else
        match Pkt.Ipv4.strip m with
        | Ok h
          when h.Pkt.Ipv4.protocol = Pkt.Ipv4.proto_tcp
               && (not (Pkt.Ipv4.is_fragment h))
               && Pkt.Addr.Ipv4.equal h.Pkt.Ipv4.dst t.my_ip ->
          msg.Core.Msg.payload.src_ip <- h.Pkt.Ipv4.src;
          Core.Layer.up_only
        | Ok h
          when Pkt.Ipv4.is_fragment h
               && h.Pkt.Ipv4.protocol = Pkt.Ipv4.proto_tcp
               && Pkt.Addr.Ipv4.equal h.Pkt.Ipv4.dst t.my_ip
               && t.reasm <> None -> (
          (* Slow path: feed the reassembly queue; a completed datagram
             continues up as a fresh contiguous chain. *)
          let payload = Mbuf.to_bytes m in
          Mbuf.free t.pool m;
          match
            Pkt.Reasm.input (Option.get t.reasm)
              ~now:msg.Core.Msg.arrival h payload
          with
          | Pkt.Reasm.Complete (h, datagram) ->
            msg.Core.Msg.payload.buf <- Mbuf.of_bytes t.pool datagram;
            msg.Core.Msg.payload.src_ip <- h.Pkt.Ipv4.src;
            Core.Layer.up_only
          | Pkt.Reasm.Pending -> Core.Layer.consume_only
          | Pkt.Reasm.Rejected _ ->
            t.n_bad_ip <- t.n_bad_ip + 1;
            Metrics.add_scalar t.bad_ip_sc 1;
            Core.Layer.consume_only)
        | Ok h when h.Pkt.Ipv4.protocol <> Pkt.Ipv4.proto_tcp ->
          t.n_non_tcp <- t.n_non_tcp + 1;
          Metrics.add_scalar t.non_tcp_sc 1;
          consume_bad m
        | Ok _ | Error _ ->
          t.n_bad_ip <- t.n_bad_ip + 1;
          Metrics.add_scalar t.bad_ip_sc 1;
          consume_bad m)
  in
  let tcp =
    Core.Layer.v ~name:"tcp"
      ~fp:(Core.Layer.footprint ~code_bytes:5536 ~data_bytes:544 ())
      (fun msg ->
        let o = t.out in
        Tcp_input.segment_arrived t.pcbs o ~my_ip:t.my_ip
          ~src_ip:msg.Core.Msg.payload.src_ip ~pool:t.pool
          ~now:msg.Core.Msg.arrival msg.Core.Msg.payload.buf;
        t.n_delivered_bytes <- t.n_delivered_bytes + o.Tcp_input.delivered;
        Metrics.add_scalar t.delivered_bytes_sc o.Tcp_input.delivered;
        match t.timers with
        | Some _ -> recovery_actions t msg o
        | None ->
          if o.Tcp_input.reply then
            [ Core.Layer.Consume; send_down t msg (reply_frame t o) ]
          else Core.Layer.consume_only)
  in
  [ ether; ip_layer; tcp ]

(* Full-duplex: both directions of [layers] under one engine, so ACKs
   generated while draining a receive batch descend through the transmit
   nodes of the same scheduling pass.  The receive path already builds
   complete Ethernet frames and the layers' transmit handlers default to
   passthrough, so the wire sees byte-identical frames to the receive
   chain arrangement — only the scheduling changes. *)
let duplex t ~discipline ?(wire = fun _ -> ()) ?intake_limit
    ?(on_shed = fun _ -> ()) ?metrics () =
  match t.msg_pool with
  | Some mp ->
    (* With a message pool attached the engine is also where messages
       die, so the wire and consume sinks recycle them.  Messages the
       caller sheds (refused at intake) are the caller's to release. *)
    Core.Engine.duplex ~discipline ~layers:(layers t)
      ~wire:(fun m ->
        wire m.Core.Msg.payload.buf;
        Core.Msg.release mp m)
      ~on_consume:(fun m -> Core.Msg.release mp m)
      ?intake_limit ~on_shed ?metrics ()
  | None ->
    Core.Engine.duplex ~discipline ~layers:(layers t)
      ~wire:(fun m -> wire m.Core.Msg.payload.buf)
      ?intake_limit ~on_shed ?metrics ()

let connect t ~dst:(dst_ip, dst_port) ~src_port =
  let pcb =
    Pcb.insert_active t.pcbs ~local_port:src_port ~remote:(dst_ip, dst_port) ()
  in
  pcb.Pcb.snd_nxt <- Tcp_input.initial_send_seq;
  pcb.Pcb.snd_una <- Tcp_input.initial_send_seq;
  let syn =
    frame t ~dst:dst_ip ~src_port ~dst_port ~seq:pcb.Pcb.snd_nxt ~ack:0
      ~flags:Pkt.Tcp.flag_syn ~window:(Sockbuf.space pcb.Pcb.sockbuf) Bytes.empty
  in
  track_tx t pcb ~seq:pcb.Pcb.snd_nxt ~flags:Pkt.Tcp.flag_syn Bytes.empty;
  pcb.Pcb.snd_nxt <- Pkt.Tcp.seq_add pcb.Pcb.snd_nxt 1;
  (pcb, syn)

let send t (pcb : Pcb.t) payload =
  match (pcb.Pcb.state, pcb.Pcb.remote) with
  | (Pcb.Established | Pcb.Close_wait), Some (rip, rport) ->
    let seq = pcb.Pcb.snd_nxt in
    let flags = Pkt.Tcp.flag_ack lor Pkt.Tcp.flag_psh in
    let data =
      frame t ~dst:rip ~src_port:pcb.Pcb.local_port ~dst_port:rport ~seq
        ~ack:pcb.Pcb.rcv_nxt ~flags
        ~window:(Sockbuf.space pcb.Pcb.sockbuf)
        payload
    in
    pcb.Pcb.snd_nxt <- Pkt.Tcp.seq_add pcb.Pcb.snd_nxt (Bytes.length payload);
    (* The segment piggybacks the newest ACK, so nothing is owed, timers
       or not (4.4BSD's [tcp_output] clears its delayed-ACK flag on every
       segment that carries an ACK). *)
    pcb.Pcb.delayed_ack <- 0;
    track_tx t pcb ~seq ~flags payload;
    Some data
  | _ -> None

let client_mac = Pkt.Addr.Mac.of_string "02:00:00:00:00:aa"

let client_frame t ~src_ip ~src_port ~dst_port ~seq ~ack ~flags
    ?(payload = Bytes.empty) () =
  Tcp_output.frame t.pool ~eth_src:client_mac ~eth_dst:t.mac ~src:src_ip
    ~dst:t.my_ip ~ident:0 ~src_port ~dst_port ~seq ~ack ~flags ~window:8760
    payload

let parse_tx t item =
  let m = item.buf in
  let result =
    match Pkt.Ethernet.strip m with
    | Error _ -> None
    | Ok _ -> (
      match Pkt.Ipv4.strip ~verify_checksum:true m with
      | Error _ -> None
      | Ok _ -> (
        let len = Mbuf.length m in
        let hdr = Mbuf.copy_out m ~pos:0 ~len:(Int.min len Pkt.Tcp.header_bytes) in
        match Pkt.Tcp.parse hdr 0 (Bytes.length hdr) with
        | Error _ -> None
        | Ok (h, _) ->
          let data_off = Int.min len (h.Pkt.Tcp.data_offset * 4) in
          let payload = Mbuf.copy_out m ~pos:data_off ~len:(len - data_off) in
          Some (h, payload)))
  in
  Mbuf.free t.pool m;
  result
