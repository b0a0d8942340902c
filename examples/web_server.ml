(* Small-message WWW server — the paper's closing observation:

     "LDLP may improve performance for Internet WWW servers, where the
      data transfer unit is 512 bytes or less in most circumstances."

     dune exec examples/web_server.exe

   A miniature HTTP/1.0-over-TCP receive path built from the real codecs:
   Ethernet -> IPv4 -> TCP -> HTTP.  Each request is a full frame with
   verified checksums; the HTTP layer parses the request line and sends a
   512-byte response back down the stack.  We run the identical layers
   under conventional and LDLP scheduling, then ask the cycle-accurate
   model what the same stack shape does on the paper's 8 KB-cache
   machine. *)

module Core = Ldlp_core
module Pkt = Ldlp_packet

let pool = Ldlp_buf.Pool.create ()

let src_ip = Pkt.Addr.Ipv4.of_string "198.51.100.7"

let dst_ip = Pkt.Addr.Ipv4.of_string "203.0.113.80"

let build_request ~seq path =
  let payload = Printf.sprintf "GET %s HTTP/1.0\r\nHost: example\r\n\r\n" path in
  let tcp_len = Pkt.Tcp.header_bytes + String.length payload in
  let seg = Bytes.create tcp_len in
  Pkt.Tcp.build
    {
      Pkt.Tcp.src_port = 32768;
      dst_port = 80;
      seq;
      ack = 0;
      data_offset = 5;
      flags = Pkt.Tcp.flag_ack lor Pkt.Tcp.flag_psh;
      window = 8760;
      urgent = 0;
    }
    seg 0;
  Bytes.blit_string payload 0 seg Pkt.Tcp.header_bytes (String.length payload);
  Pkt.Tcp.store_checksum ~src:src_ip ~dst:dst_ip seg 0 tcp_len;
  let m = Ldlp_buf.Mbuf.of_bytes pool seg in
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
        dst = dst_ip;
      }
  in
  Pkt.Ethernet.encapsulate m
    {
      Pkt.Ethernet.dst = Pkt.Addr.Mac.of_string "02:00:00:00:00:50";
      src = Pkt.Addr.Mac.of_string "02:00:00:00:00:07";
      ethertype = Pkt.Ethernet.ethertype_ipv4;
    }

let response_body = String.make 512 'x'

(* The server stack.  Returns (layers, counters). *)
let server_stack () =
  let served = ref 0 and bad = ref 0 and bytes_out = ref 0 in
  let drop msg =
    incr bad;
    Ldlp_buf.Mbuf.free pool msg;
    [ Core.Layer.Consume ]
  in
  let ether =
    Core.Layer.v ~name:"ether"
      ~fp:(Core.Layer.footprint ~code_bytes:4480 ())
      (fun msg ->
        match Pkt.Ethernet.strip msg.Core.Msg.payload with
        | Ok h when h.Pkt.Ethernet.ethertype = Pkt.Ethernet.ethertype_ipv4 ->
          [ Core.Layer.Deliver_up msg ]
        | Ok _ | Error _ -> drop msg.Core.Msg.payload)
  in
  let ip =
    Core.Layer.v ~name:"ip"
      ~fp:(Core.Layer.footprint ~code_bytes:2784 ())
      (fun msg ->
        match Pkt.Ipv4.strip msg.Core.Msg.payload with
        | Ok h when h.Pkt.Ipv4.protocol = Pkt.Ipv4.proto_tcp ->
          [ Core.Layer.Deliver_up msg ]
        | Ok _ | Error _ -> drop msg.Core.Msg.payload)
  in
  let tcp =
    Core.Layer.v ~name:"tcp"
      ~fp:(Core.Layer.footprint ~code_bytes:3168 ())
      (fun msg ->
        let m = msg.Core.Msg.payload in
        if not (Pkt.Tcp.verify_checksum ~src:src_ip ~dst:dst_ip m) then
          drop m
        else begin
          let m = Ldlp_buf.Mbuf.pullup pool m Pkt.Tcp.header_bytes in
          match
            Pkt.Tcp.parse
              (Ldlp_buf.Mbuf.copy_out m ~pos:0 ~len:Pkt.Tcp.header_bytes)
              0 Pkt.Tcp.header_bytes
          with
          | Error _ -> drop m
          | Ok (h, _) ->
            Ldlp_buf.Mbuf.adj m (h.Pkt.Tcp.data_offset * 4);
            [ Core.Layer.Deliver_up (Core.Msg.with_payload msg m ~size:(Ldlp_buf.Mbuf.length m)) ]
        end)
  in
  let http =
    Core.Layer.v ~name:"http"
      ~fp:(Core.Layer.footprint ~code_bytes:2000 ())
      (fun msg ->
        let m = msg.Core.Msg.payload in
        let req = Bytes.to_string (Ldlp_buf.Mbuf.to_bytes m) in
        Ldlp_buf.Mbuf.free pool m;
        if String.length req >= 4 && String.sub req 0 4 = "GET " then begin
          incr served;
          let response =
            "HTTP/1.0 200 OK\r\nContent-Length: 512\r\n\r\n" ^ response_body
          in
          bytes_out := !bytes_out + String.length response;
          let reply = Ldlp_buf.Mbuf.of_string pool response in
          [
            Core.Layer.Send_down
              (Core.Msg.with_payload msg reply
                 ~size:(Ldlp_buf.Mbuf.length reply));
            Core.Layer.Consume;
          ]
        end
        else drop (Ldlp_buf.Mbuf.of_string pool ""))
  in
  ([ ether; ip; tcp; http ], served, bad, bytes_out)

let run ~discipline requests =
  let layers, served, bad, bytes_out = server_stack () in
  let replies = ref 0 in
  let sched =
    Core.Engine.rx_chain ~discipline ~layers
      ~down:(fun m ->
        incr replies;
        Ldlp_buf.Mbuf.free pool m.Core.Msg.payload)
      ()
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun m ->
      Core.Engine.inject sched ~node:0 (Core.Msg.make ~size:(Ldlp_buf.Mbuf.length m) m))
    requests;
  Core.Engine.run sched;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, !served, !bad, !replies, !bytes_out, Core.Engine.stats sched)

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 10_000 in
  Printf.printf "Small-message web server: %d HTTP requests, 512-byte responses\n\n" n;
  let requests () =
    List.init n (fun i ->
        build_request
          ~seq:(1 + i)
          (Printf.sprintf "/doc/%d.html" i))
  in
  let show name (dt, served, bad, replies, bytes_out, stats) =
    Printf.printf
      "%-13s served %6d (bad %d, replies %d, %d response bytes) in %.3f s -> %8.0f req/s, max batch %d\n"
      name served bad replies bytes_out dt
      (float_of_int served /. dt)
      stats.Core.Engine.max_batch
  in
  show "conventional" (run ~discipline:Core.Engine.Conventional (requests ()));
  show "ldlp" (run ~discipline:(Core.Engine.Ldlp Core.Batch.paper_default) (requests ()));

  (* What would this stack do on the paper's machine?  Feed the measured
     footprints to the analytic model. *)
  let layers, _, _, _ = server_stack () in
  let shape =
    {
      Core.Blocking.layer_code_bytes =
        List.map (fun l -> l.Core.Layer.fp.Core.Layer.code_bytes) layers;
      layer_data_bytes =
        List.map (fun l -> l.Core.Layer.fp.Core.Layer.data_bytes) layers;
      msg_bytes = 512;
      cycles_per_msg = 4 * 1652;
    }
  in
  Format.printf "@.On the paper's 8 KB-cache machine this stack shape gives:@.%a@."
    Core.Blocking.pp_recommendation
    (Core.Blocking.recommend Core.Blocking.paper_machine shape)
