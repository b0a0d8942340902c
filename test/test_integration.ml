(* Cross-library integration tests:
   - a miniature TCP receive-and-acknowledge path built from mbufs and the
     packet codecs, scheduled by the LDLP engine (the paper's Section 2
     subject, executable);
   - a two-switch signalling network (the paper's Section 1 motivation);
   - consistency between the analytic blocking model and the
     cycle-accurate simulator. *)

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

let pool = Ldlp_buf.Pool.create ()

(* ---------- TCP-lite receive path ---------- *)

let src_ip = Ldlp_packet.Addr.Ipv4.of_string "10.0.0.1"

let dst_ip = Ldlp_packet.Addr.Ipv4.of_string "10.0.0.2"

let build_segment ~seq payload =
  let open Ldlp_packet in
  let tcp_len = Tcp.header_bytes + String.length payload in
  let seg = Bytes.create tcp_len in
  Tcp.build
    {
      Tcp.src_port = 5001;
      dst_port = 80;
      seq;
      ack = 0;
      data_offset = 5;
      flags = Tcp.flag_ack;
      window = 8760;
      urgent = 0;
    }
    seg 0;
  Bytes.blit_string payload 0 seg Tcp.header_bytes (String.length payload);
  Tcp.store_checksum ~src:src_ip ~dst:dst_ip seg 0 tcp_len;
  let m = Ldlp_buf.Mbuf.of_bytes pool seg in
  let m =
    Ipv4.encapsulate m
      {
        Ipv4.ihl = 5;
        tos = 0;
        total_length = 0;
        ident = 7;
        dont_fragment = true;
        more_fragments = false;
        fragment_offset = 0;
        ttl = 64;
        protocol = Ipv4.proto_tcp;
        src = src_ip;
        dst = dst_ip;
      }
  in
  Ethernet.encapsulate m
    {
      Ethernet.dst = Addr.Mac.of_string "02:00:00:00:00:02";
      src = Addr.Mac.of_string "02:00:00:00:00:01";
      ethertype = Ethernet.ethertype_ipv4;
    }

(* The receive stack: ether -> ip -> tcp.  The TCP layer verifies the
   checksum, appends in-order payload to a socket buffer, and sends an ACK
   downward — the paper's Table 2 path, minus the process machinery. *)
let tcp_stack () =
  let open Ldlp_core in
  let sockbuf = Buffer.create 256 in
  let rcv_nxt = ref 1 in
  let acks = ref [] in
  let bad = ref 0 in
  let ether =
    Layer.v ~name:"ether" (fun msg ->
        match Ldlp_packet.Ethernet.strip msg.Msg.payload with
        | Ok h when h.Ldlp_packet.Ethernet.ethertype = Ldlp_packet.Ethernet.ethertype_ipv4
          ->
          [ Layer.Deliver_up msg ]
        | Ok _ | Error _ ->
          incr bad;
          Ldlp_buf.Mbuf.free pool msg.Msg.payload;
          [ Layer.Consume ])
  in
  let ip =
    Layer.v ~name:"ip" (fun msg ->
        match Ldlp_packet.Ipv4.strip msg.Msg.payload with
        | Ok h
          when h.Ldlp_packet.Ipv4.protocol = Ldlp_packet.Ipv4.proto_tcp
               && not (Ldlp_packet.Ipv4.is_fragment h) ->
          [ Layer.Deliver_up msg ]
        | Ok _ | Error _ ->
          incr bad;
          Ldlp_buf.Mbuf.free pool msg.Msg.payload;
          [ Layer.Consume ])
  in
  let tcp =
    Layer.v ~name:"tcp" (fun msg ->
        let m = msg.Msg.payload in
        if not (Ldlp_packet.Tcp.verify_checksum ~src:src_ip ~dst:dst_ip m) then begin
          incr bad;
          Ldlp_buf.Mbuf.free pool m;
          [ Layer.Consume ]
        end
        else begin
          let m = Ldlp_buf.Mbuf.pullup pool m Ldlp_packet.Tcp.header_bytes in
          let hdr = Ldlp_buf.Mbuf.copy_out m ~pos:0 ~len:Ldlp_packet.Tcp.header_bytes in
          match Ldlp_packet.Tcp.parse hdr 0 Ldlp_packet.Tcp.header_bytes with
          | Error _ ->
            incr bad;
            Ldlp_buf.Mbuf.free pool m;
            [ Layer.Consume ]
          | Ok (h, _) ->
            Ldlp_buf.Mbuf.adj m (h.Ldlp_packet.Tcp.data_offset * 4);
            let data = Ldlp_buf.Mbuf.to_bytes m in
            Ldlp_buf.Mbuf.free pool m;
            if h.Ldlp_packet.Tcp.seq = !rcv_nxt then begin
              Buffer.add_bytes sockbuf data;
              rcv_nxt :=
                Ldlp_packet.Tcp.seq_add h.Ldlp_packet.Tcp.seq (Bytes.length data);
              acks := !rcv_nxt :: !acks;
              [ Layer.Consume ]
            end
            else begin
              (* Out of order: drop, re-ack. *)
              acks := !rcv_nxt :: !acks;
              [ Layer.Consume ]
            end
        end)
  in
  ([ ether; ip; tcp ], sockbuf, acks, bad, rcv_nxt)

let drive_tcp ~discipline segments =
  let layers, sockbuf, acks, bad, _ = tcp_stack () in
  let sched = Ldlp_core.Engine.rx_chain ~discipline ~layers () in
  List.iter
    (fun m ->
      Ldlp_core.Engine.inject sched ~node:0
        (Ldlp_core.Msg.make ~size:(Ldlp_buf.Mbuf.length m) m))
    segments;
  Ldlp_core.Engine.run sched;
  (Buffer.contents sockbuf, List.rev !acks, !bad, Ldlp_core.Engine.stats sched)

let segments_of_chunks chunks =
  let _, segs =
    List.fold_left
      (fun (seq, acc) chunk ->
        let m = build_segment ~seq chunk in
        (Ldlp_packet.Tcp.seq_add seq (String.length chunk), m :: acc))
      (1, []) chunks
  in
  List.rev segs

let test_tcp_path_in_order () =
  let chunks = [ "GET /index"; ".html HTTP"; "/1.0\r\n\r\n" ] in
  let data, acks, bad, stats =
    drive_tcp ~discipline:Ldlp_core.Engine.Conventional (segments_of_chunks chunks)
  in
  checks "reassembled" "GET /index.html HTTP/1.0\r\n\r\n" data;
  checki "no errors" 0 bad;
  checki "acks per segment" 3 (List.length acks);
  check "cumulative acks increase" true
    (acks = List.sort compare acks);
  checki "all consumed" 3 stats.Ldlp_core.Engine.consumed

let test_tcp_path_ldlp_same_result () =
  let chunks = List.init 20 (fun i -> Printf.sprintf "chunk-%02d|" i) in
  let conv, _, bad1, _ =
    drive_tcp ~discipline:Ldlp_core.Engine.Conventional (segments_of_chunks chunks)
  in
  let ldlp, _, bad2, _ =
    drive_tcp
      ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
      (segments_of_chunks chunks)
  in
  checks "identical delivery" conv ldlp;
  checki "no errors conv" 0 bad1;
  checki "no errors ldlp" 0 bad2

let test_tcp_path_corrupted_segment_dropped () =
  let segs = segments_of_chunks [ "good-data-"; "corrupted!"; "more-data." ] in
  (* Corrupt the second segment's payload after checksumming. *)
  (match segs with
  | [ _; s2; _ ] ->
    let len = Ldlp_buf.Mbuf.length s2 in
    Ldlp_buf.Mbuf.copy_into s2 ~pos:(len - 3) (Bytes.of_string "X") ~src_off:0 ~len:1
  | _ -> Alcotest.fail "segments");
  let data, _, bad, _ = drive_tcp ~discipline:Ldlp_core.Engine.Conventional segs in
  checki "one bad segment" 1 bad;
  (* Third segment is now out of order and dropped; only first delivered. *)
  checks "only in-order prefix" "good-data-" data

let test_tcp_path_mixed_traffic () =
  (* Non-IP ethertype frames must be dropped at the bottom layer. *)
  let arp = Ldlp_buf.Mbuf.of_bytes pool (Bytes.make 42 '\x00') in
  let hdr =
    {
      Ldlp_packet.Ethernet.dst = Ldlp_packet.Addr.Mac.broadcast;
      src = Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01";
      ethertype = Ldlp_packet.Ethernet.ethertype_arp;
    }
  in
  let arp = Ldlp_packet.Ethernet.encapsulate arp hdr in
  let segs = segments_of_chunks [ "payload" ] @ [ arp ] in
  let data, _, bad, stats = drive_tcp ~discipline:Ldlp_core.Engine.Conventional segs in
  checks "tcp data delivered" "payload" data;
  checki "arp dropped" 1 bad;
  checki "both consumed" 2 stats.Ldlp_core.Engine.consumed

(* ---------- demultiplexing host: TCP and DNS behind one IP layer ------- *)

(* The Section 3.2 graph case on real protocols: ether -> ip -> {tcp, udp},
   where the TCP branch is the tcpmini engine and the UDP branch the
   DNS-lite server, all scheduled as one engine graph under both
   disciplines. *)
let demux_host ~discipline queries segments =
  let open Ldlp_core in
  let my_ip = Ldlp_packet.Addr.Ipv4.of_string "10.5.0.1" in
  let pcbs = Ldlp_tcpmini.Pcb.create_table () in
  ignore (Ldlp_tcpmini.Pcb.listen pcbs ~port:80 ());
  let dns =
    Ldlp_dnslite.Server.create ~zone:[ ("a.example", "10.5.0.9") ] ()
  in
  let tcp_replies = ref 0 and dns_replies = ref 0 in
  (* Payload: the chain plus the IP source/protocol recorded on the way
     up.  (Per-message state must live in the payload under blocked
     scheduling.) *)
  let g = Engine.create ~discipline () in
  let ether =
    Layer.v ~name:"ether" (fun msg ->
        let m, _, _ = msg.Msg.payload in
        match Ldlp_packet.Ethernet.strip m with
        | Ok h when h.Ldlp_packet.Ethernet.ethertype = Ldlp_packet.Ethernet.ethertype_ipv4
          ->
          [ Layer.Deliver_up msg ]
        | Ok _ | Error _ ->
          Ldlp_buf.Mbuf.free pool m;
          [ Layer.Consume ])
  in
  let ip =
    Layer.v ~name:"ip" (fun msg ->
        let m, _, _ = msg.Msg.payload in
        match Ldlp_packet.Ipv4.strip m with
        | Ok h when not (Ldlp_packet.Ipv4.is_fragment h) ->
          let branch =
            if h.Ldlp_packet.Ipv4.protocol = Ldlp_packet.Ipv4.proto_tcp then "tcp"
            else if h.Ldlp_packet.Ipv4.protocol = Ldlp_packet.Ipv4.proto_udp then "udp"
            else ""
          in
          if branch = "" then begin
            Ldlp_buf.Mbuf.free pool m;
            [ Layer.Consume ]
          end
          else
            [
              Layer.Deliver_to
                ( branch,
                  Msg.with_payload msg
                    (m, h.Ldlp_packet.Ipv4.src, h.Ldlp_packet.Ipv4.protocol)
                    ~size:(Ldlp_buf.Mbuf.length m) );
            ]
        | Ok _ | Error _ ->
          Ldlp_buf.Mbuf.free pool m;
          [ Layer.Consume ])
  in
  let out = Ldlp_tcpmini.Tcp_input.create_outcome () in
  let tcp =
    Layer.v ~name:"tcp" (fun msg ->
        let m, src, _ = msg.Msg.payload in
        Ldlp_tcpmini.Tcp_input.segment_arrived pcbs out ~my_ip ~src_ip:src ~pool
          ~now:0.0 m;
        if out.Ldlp_tcpmini.Tcp_input.reply then incr tcp_replies;
        [ Layer.Consume ])
  in
  let udp =
    Layer.v ~name:"udp" (fun msg ->
        let m, src, _ = msg.Msg.payload in
        let flat = Ldlp_buf.Mbuf.to_bytes m in
        Ldlp_buf.Mbuf.free pool m;
        (match Ldlp_packet.Udp.parse flat 0 (Bytes.length flat) with
        | Ok (h, off)
          when Ldlp_packet.Udp.verify_checksum ~src ~dst:my_ip flat 0
                 h.Ldlp_packet.Udp.length ->
          let payload =
            Bytes.sub flat off (h.Ldlp_packet.Udp.length - off)
          in
          if Ldlp_dnslite.Server.handle dns payload <> None then
            incr dns_replies
        | _ -> ());
        [ Layer.Consume ])
  in
  let tcp = Engine.add_layer g tcp in
  let udp = Engine.add_layer g udp in
  let ip = Engine.add_layer g ~above:[ tcp; udp ] ip in
  let ether = Engine.add_layer g ~above:[ ip ] ether in
  let inject m =
    Engine.inject g ~node:ether
      (Msg.make ~size:(Ldlp_buf.Mbuf.length m) (m, my_ip, 0))
  in
  (* Interleave DNS queries and TCP SYNs. *)
  List.iter2
    (fun q s ->
      inject q;
      inject s)
    queries segments;
  Engine.run g;
  let s = Engine.stats g in
  (!tcp_replies, !dns_replies, s, Ldlp_tcpmini.Pcb.connections pcbs)

let test_demux_host_tcp_and_dns () =
  let my_ip = Ldlp_packet.Addr.Ipv4.of_string "10.5.0.1" in
  let make_inputs () =
    let dns_frame i =
      (* Reuse the dnshost frame builder via a throwaway host config. *)
      let h =
        Ldlp_dnslite.Dnshost.create ~pool
          ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
          ~ip:my_ip
          ~server:(Ldlp_dnslite.Server.create ~zone:[] ())
          ()
      in
      Ldlp_dnslite.Dnshost.client_query h ~src_ip:src_ip ~src_port:(2000 + i)
        (Ldlp_dnslite.Dnsmsg.query ~id:i
           (Ldlp_dnslite.Name.of_string "a.example"))
    in
    let syn_frame i =
      Ldlp_tcpmini.Tcp_output.frame pool
        ~eth_src:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:aa")
        ~eth_dst:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
        ~src:src_ip ~dst:my_ip ~ident:i ~src_port:(3000 + i) ~dst_port:80
        ~seq:50 ~ack:0 ~flags:Ldlp_packet.Tcp.flag_syn ~window:8760 Bytes.empty
    in
    (List.init 10 dns_frame, List.init 10 syn_frame)
  in
  let run discipline =
    let queries, syns = make_inputs () in
    demux_host ~discipline queries syns
  in
  let t1, d1, s1, conns1 = run Ldlp_core.Engine.Conventional in
  checki "10 syn-acks" 10 t1;
  checki "10 dns replies" 10 d1;
  checki "10 connections" 10 conns1;
  checki "no misroutes" 0 s1.Ldlp_core.Engine.misrouted;
  let t2, d2, _, conns2 =
    run (Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
  in
  checki "ldlp same tcp" t1 t2;
  checki "ldlp same dns" d1 d2;
  checki "ldlp same connections" conns1 conns2

(* ---------- Two-switch signalling network ---------- *)

let test_two_switch_call () =
  let open Ldlp_sigproto in
  (* Switch A: addresses "b:*" go out port 9 (the trunk).  Switch B:
     everything terminates locally on port 0. *)
  let sw_a = Switch.create ~routes:[ ("b:", 9) ] ~local_port:0 () in
  let sw_b = Switch.create ~routes:[] ~local_port:0 () in
  (* The wire: A port 9 <-> B port 1; the caller is A port 1; the callee
     host answers whatever arrives at B port 0. *)
  let to_caller = ref [] in
  let rec pump = function
    | [] -> ()
    | (`A, port, msg) :: rest ->
      let out = Switch.handle sw_a ~port msg in
      let forwarded =
        List.concat_map
          (fun (p, m) ->
            if p = 9 then [ (`B, 1, m) ]
            else begin
              to_caller := m :: !to_caller;
              []
            end)
          out
      in
      pump (rest @ forwarded)
    | (`B, port, msg) :: rest ->
      let out = Switch.handle sw_b ~port msg in
      let forwarded =
        List.concat_map
          (fun (p, m) ->
            if p = 1 then [ (`A, 9, m) ]
            else begin
              (* Callee host: accept incoming SETUP by answering CONNECT,
                 ack CONNECT_ACK silently. *)
              match m.Sigmsg.typ with
              | Sigmsg.Setup ->
                [
                  ( `B,
                    0,
                    Sigmsg.v ~from_originator:false
                      ~call_ref:m.Sigmsg.call_ref Sigmsg.Connect [] );
                ]
              | Sigmsg.Release ->
                [
                  ( `B,
                    0,
                    Sigmsg.v ~from_originator:false
                      ~call_ref:m.Sigmsg.call_ref Sigmsg.Release_complete [] );
                ]
              | _ -> []
            end)
          out
      in
      pump (rest @ forwarded)
  in
  let setup =
    Sigmsg.v ~call_ref:11 Sigmsg.Setup [ Ie.called_party "b:7"; Ie.qos 0 ]
  in
  pump [ (`A, 1, setup) ];
  (* The caller must see CALL_PROCEEDING then CONNECT; both switches hold
     one active call. *)
  let types = List.rev_map (fun m -> m.Sigmsg.typ) !to_caller in
  check "caller got proceeding" true (List.mem Sigmsg.Call_proceeding types);
  check "caller got connect" true (List.mem Sigmsg.Connect types);
  checki "switch A active" 1 (Switch.active_calls sw_a);
  checki "switch B active" 1 (Switch.active_calls sw_b);
  (* Caller acks the connect to finish, then releases. *)
  pump [ (`A, 1, Sigmsg.v ~call_ref:11 Sigmsg.Connect_ack []) ];
  checki "A connected" 1 (Switch.stats sw_a).Switch.calls_connected;
  pump [ (`A, 1, Sigmsg.v ~call_ref:11 Sigmsg.Release []) ];
  checki "A table empty after release" 0 (Switch.active_calls sw_a);
  checki "B table empty after release" 0 (Switch.active_calls sw_b)

(* ---------- Analytic model vs cycle-accurate simulation ---------- *)

let test_blocking_model_matches_simulation () =
  let params = { Ldlp_model.Params.quick with Ldlp_model.Params.runs = 3 } in
  let stack =
    {
      Ldlp_core.Blocking.layer_code_bytes = List.init 5 (fun _ -> 6144);
      layer_data_bytes = List.init 5 (fun _ -> 256);
      msg_bytes = 552;
      cycles_per_msg = 5 * 1652;
    }
  in
  let analytic =
    Ldlp_core.Blocking.misses_per_msg Ldlp_core.Blocking.paper_machine stack
      ~batch:1
  in
  let make_source rng =
    Ldlp_traffic.Source.limit_time
      (Ldlp_traffic.Poisson.source ~rng ~rate:2000.0 ())
      params.Ldlp_model.Params.seconds
  in
  let sim =
    Ldlp_model.Simrun.run_avg ~params
      ~discipline:Ldlp_model.Simrun.Conventional ~seed:5 ~make_source ()
  in
  let simulated =
    sim.Ldlp_model.Simrun.imisses_per_msg +. sim.Ldlp_model.Simrun.dmisses_per_msg
  in
  check
    (Printf.sprintf "simulated %.0f within 15%% of analytic %.0f" simulated
       analytic)
    true
    (Float.abs (simulated -. analytic) < 0.15 *. analytic)

(* ---------- Parallel sweep engine determinism ---------- *)

let test_sweep_selftest_three_domains () =
  (* PR 1's selftest ran at 2 domains; 3 domains exercises uneven work
     splits (3 rate points over 3 workers, 2 clock points over 3). *)
  check "3-domain sweeps identical to sequential" true
    (Ldlp_model.Figures.sweep_selftest ~domains:3 ())

let suite =
  [
    Alcotest.test_case "tcp path in order" `Quick test_tcp_path_in_order;
    Alcotest.test_case "tcp path ldlp = conventional" `Quick
      test_tcp_path_ldlp_same_result;
    Alcotest.test_case "tcp path corruption" `Quick
      test_tcp_path_corrupted_segment_dropped;
    Alcotest.test_case "tcp path mixed traffic" `Quick test_tcp_path_mixed_traffic;
    Alcotest.test_case "demux host tcp+dns" `Quick test_demux_host_tcp_and_dns;
    Alcotest.test_case "two-switch call" `Quick test_two_switch_call;
    Alcotest.test_case "analytic vs simulated" `Slow
      test_blocking_model_matches_simulation;
    Alcotest.test_case "sweep selftest, 3 domains" `Slow
      test_sweep_selftest_three_domains;
  ]
