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
  mutable c : counters;
  mutable ident : int;
  mutable timers : timers option;
  (* Scalar mirrors of [counters] on an attached metric sheet (dummy refs
     otherwise), bumped through the gated [Metrics.add_scalar]. *)
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
    c =
      {
        frames_in = 0;
        non_ip = 0;
        non_tcp = 0;
        bad_ip = 0;
        delivered_bytes = 0;
        retransmits = 0;
      };
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

let counters t = t.c

(* Headers are written with the cursor writers straight into the chain's
   leading space — no scratch header buffer, no header records — and are
   byte-identical to what the [encapsulate] record path produced. *)
let build_frame t ~dst_ip segment =
  let m = Mbuf.of_bytes t.pool segment in
  t.ident <- (t.ident + 1) land 0xFFFF;
  let total_length = Mbuf.length m + Pkt.Ipv4.header_bytes in
  let m = Mbuf.prepend m Pkt.Ipv4.header_bytes in
  Pkt.Ipv4.write ~tos:0 ~total_length ~ident:t.ident ~dont_fragment:true
    ~more_fragments:false ~fragment_offset:0 ~ttl:64
    ~protocol:Pkt.Ipv4.proto_tcp ~src:t.my_ip ~dst:dst_ip (Mbuf.seg_data m)
    (Mbuf.seg_off m);
  let m = Mbuf.prepend m Pkt.Ethernet.header_bytes in
  Pkt.Ethernet.write ~dst:t.gateway_mac ~src:t.mac
    ~ethertype:Pkt.Ethernet.ethertype_ipv4 (Mbuf.seg_data m) (Mbuf.seg_off m);
  m

let reply_frame t (r : Tcp_input.reply) =
  let segment =
    Tcp_output.build ~src:t.my_ip ~dst:r.Tcp_input.dst
      ~src_port:r.Tcp_input.src_port ~dst_port:r.Tcp_input.dst_port
      ~seq:r.Tcp_input.seq ~ack:r.Tcp_input.ack ~flags:r.Tcp_input.flags
      ~window:r.Tcp_input.window ()
  in
  build_frame t ~dst_ip:r.Tcp_input.dst segment

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
    let segment =
      Tcp_output.build ~src:t.my_ip ~dst:rip ~src_port:pcb.Pcb.local_port
        ~dst_port:rport ~seq:s.Pcb.seg_seq
        ~ack:(if has_ack then pcb.Pcb.rcv_nxt else 0l)
        ~flags:s.Pcb.seg_flags
        ~window:(Sockbuf.space pcb.Pcb.sockbuf)
        ~payload:s.Pcb.seg_payload ()
    in
    Some (build_frame t ~dst_ip:rip segment)

let count_retransmit t =
  t.c <- { t.c with retransmits = t.c.retransmits + 1 };
  Metrics.add_scalar t.retransmits_sc 1

let retransmit_seg t pcb (s : Pcb.seg) ~now =
  match seg_frame t pcb s with
  | None -> None
  | Some frame ->
    s.Pcb.seg_sent_at <- now;
    s.Pcb.seg_rexmits <- s.Pcb.seg_rexmits + 1;
    count_retransmit t;
    Some frame

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
        if s.Pcb.seg_sent_at +. Rto.rto pcb.Pcb.rto <= now +. 1e-9 then begin
          (match retransmit_seg t pcb s ~now with
          | Some frame -> tm.tx frame
          | None -> ());
          Rto.backoff pcb.Pcb.rto
        end;
        arm_rtx t pcb)

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
            let segment =
              Tcp_output.build ~src:t.my_ip ~dst:rip
                ~src_port:pcb.Pcb.local_port ~dst_port:rport
                ~seq:pcb.Pcb.snd_nxt ~ack:pcb.Pcb.rcv_nxt
                ~flags:Pkt.Tcp.flag_ack
                ~window:(Sockbuf.space pcb.Pcb.sockbuf) ()
            in
            tm.tx (build_frame t ~dst_ip:rip segment)
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
   segment for [pcb]: emit a pending fast retransmit, keep the
   retransmission timer armed while data is outstanding, and arm the
   delayed-ACK timer when an ACK is owed. *)
let recovery_frames t (pcb : Pcb.t) ~now =
  match t.timers with
  | None -> []
  | Some _ ->
    let fast =
      if pcb.Pcb.fast_retx_pending then begin
        pcb.Pcb.fast_retx_pending <- false;
        match Pcb.oldest_unacked pcb with
        | None -> []
        | Some s -> (
          match retransmit_seg t pcb s ~now with
          | Some frame -> [ frame ]
          | None -> [])
      end
      else []
    in
    arm_rtx t pcb;
    arm_delack t pcb;
    fast

let layers t =
  let consume_bad m =
    Mbuf.free t.pool m;
    Core.Layer.consume_only
  in
  let ether =
    Core.Layer.v ~name:"ether"
      ~fp:(Core.Layer.footprint ~code_bytes:4480 ~data_bytes:864 ())
      (fun msg ->
        t.c <- { t.c with frames_in = t.c.frames_in + 1 };
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
            t.c <- { t.c with non_ip = t.c.non_ip + 1 };
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
            t.c <- { t.c with non_ip = t.c.non_ip + 1 };
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
             including the checksum).  Anything else falls through to the
             record path untouched; [check_at] mutates nothing. *)
          Mbuf.contiguous m Pkt.Ipv4.header_bytes
          &&
          let buf = Mbuf.seg_data m and off = Mbuf.seg_off m in
          Pkt.Ipv4.ihl_at buf off = 5
          && (match Pkt.Ipv4.check_at buf off Pkt.Ipv4.header_bytes with
             | Ok _ -> true
             | Error _ -> false)
          && Pkt.Ipv4.protocol_at buf off = Pkt.Ipv4.proto_tcp
          && Pkt.Ipv4.frag_at buf off land 0x3FFF = 0
          && Pkt.Addr.Ipv4.equal (Pkt.Ipv4.dst_at buf off) t.my_ip
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
            t.c <- { t.c with bad_ip = t.c.bad_ip + 1 };
            Metrics.add_scalar t.bad_ip_sc 1;
            Core.Layer.consume_only)
        | Ok h when h.Pkt.Ipv4.protocol <> Pkt.Ipv4.proto_tcp ->
          t.c <- { t.c with non_tcp = t.c.non_tcp + 1 };
          Metrics.add_scalar t.non_tcp_sc 1;
          consume_bad m
        | Ok _ | Error _ ->
          t.c <- { t.c with bad_ip = t.c.bad_ip + 1 };
          Metrics.add_scalar t.bad_ip_sc 1;
          consume_bad m)
  in
  let tcp =
    Core.Layer.v ~name:"tcp"
      ~fp:(Core.Layer.footprint ~code_bytes:5536 ~data_bytes:544 ())
      (fun msg ->
        let m = msg.Core.Msg.payload.buf in
        let o =
          Tcp_input.segment_arrived t.pcbs ~my_ip:t.my_ip
            ~src_ip:msg.Core.Msg.payload.src_ip ~pool:t.pool
            ~now:msg.Core.Msg.arrival m
        in
        t.c <- { t.c with delivered_bytes = t.c.delivered_bytes + o.Tcp_input.delivered };
        Metrics.add_scalar t.delivered_bytes_sc o.Tcp_input.delivered;
        let send_down frame =
          (* Outbound frames draw their message from the host's pool when
             one is attached (released again at the wire/consume sinks);
             without a pool, the pre-pooling copy-on-write behavior. *)
          let item = { buf = frame; src_ip = t.my_ip } in
          let size = Mbuf.length frame in
          Core.Layer.Send_down
            (match t.msg_pool with
            | Some mp ->
              Core.Msg.acquire mp ~arrival:msg.Core.Msg.arrival ~size item
            | None -> Core.Msg.with_payload msg item ~size)
        in
        let downs =
          List.map
            (fun (r : Tcp_input.reply) ->
              (* A SYN-bearing reply (the SYN-ACK) consumes sequence space
                 and must survive loss like data does. *)
              (if r.Tcp_input.flags land Pkt.Tcp.flag_syn <> 0 then
                 match o.Tcp_input.pcb with
                 | Some pcb ->
                   track_tx t pcb ~seq:r.Tcp_input.seq ~flags:r.Tcp_input.flags
                     Bytes.empty
                 | None -> ());
              send_down (reply_frame t r))
            o.Tcp_input.replies
        in
        let recovery =
          match o.Tcp_input.pcb with
          | Some pcb ->
            List.map send_down
              (recovery_frames t pcb ~now:msg.Core.Msg.arrival)
          | None -> []
        in
        Core.Layer.Consume :: (downs @ recovery))
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
  let segment =
    Tcp_output.build ~src:t.my_ip ~dst:dst_ip ~src_port ~dst_port
      ~seq:pcb.Pcb.snd_nxt ~ack:0l ~flags:Pkt.Tcp.flag_syn
      ~window:(Sockbuf.space pcb.Pcb.sockbuf) ()
  in
  track_tx t pcb ~seq:pcb.Pcb.snd_nxt ~flags:Pkt.Tcp.flag_syn Bytes.empty;
  pcb.Pcb.snd_nxt <- Pkt.Tcp.seq_add pcb.Pcb.snd_nxt 1;
  (pcb, build_frame t ~dst_ip segment)

let send t (pcb : Pcb.t) payload =
  match (pcb.Pcb.state, pcb.Pcb.remote) with
  | (Pcb.Established | Pcb.Close_wait), Some (rip, rport) ->
    let seq = pcb.Pcb.snd_nxt in
    let flags = Pkt.Tcp.flag_ack lor Pkt.Tcp.flag_psh in
    let segment =
      Tcp_output.build ~src:t.my_ip ~dst:rip ~src_port:pcb.Pcb.local_port
        ~dst_port:rport ~seq ~ack:pcb.Pcb.rcv_nxt ~flags
        ~window:(Sockbuf.space pcb.Pcb.sockbuf)
        ~payload ()
    in
    pcb.Pcb.snd_nxt <- Pkt.Tcp.seq_add pcb.Pcb.snd_nxt (Bytes.length payload);
    if t.timers <> None then begin
      (* The segment piggybacks the newest ACK, so nothing is owed. *)
      pcb.Pcb.delayed_ack <- 0;
      track_tx t pcb ~seq ~flags payload
    end;
    Some (build_frame t ~dst_ip:rip segment)
  | _ -> None

let client_frame t ~src_ip ~src_port ~dst_port ~seq ~ack ~flags
    ?(payload = Bytes.empty) () =
  let segment =
    Tcp_output.build ~src:src_ip ~dst:t.my_ip ~src_port ~dst_port ~seq ~ack
      ~flags ~window:8760 ~payload ()
  in
  let m = Mbuf.of_bytes t.pool segment in
  let m =
    Pkt.Ipv4.encapsulate m
      {
        Pkt.Ipv4.ihl = 5;
        tos = 0;
        total_length = 0;
        ident = 0;
        dont_fragment = true;
        more_fragments = false;
        fragment_offset = 0;
        ttl = 64;
        protocol = Pkt.Ipv4.proto_tcp;
        src = src_ip;
        dst = t.my_ip;
      }
  in
  Pkt.Ethernet.encapsulate m
    {
      Pkt.Ethernet.dst = t.mac;
      src = Pkt.Addr.Mac.of_string "02:00:00:00:00:aa";
      ethertype = Pkt.Ethernet.ethertype_ipv4;
    }

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
        let hdr = Mbuf.copy_out m ~pos:0 ~len:(min len Pkt.Tcp.header_bytes) in
        match Pkt.Tcp.parse hdr 0 (Bytes.length hdr) with
        | Error _ -> None
        | Ok (h, _) ->
          let data_off = min len (h.Pkt.Tcp.data_offset * 4) in
          let payload = Mbuf.copy_out m ~pos:data_off ~len:(len - data_off) in
          Some (h, payload)))
  in
  Mbuf.free t.pool m;
  result
