(* A connection-oriented request/response server on the miniature TCP/IP
   host — the paper's Section 2 receive-and-acknowledge path, executable
   end to end.

     dune exec examples/tcp_server.exe [-- <connections>]

   For every simulated client this example performs the full lifecycle the
   paper traces: SYN / SYN-ACK / ACK handshake, a small request segment
   (which takes tcp_input's header-prediction fast path), a response sent
   back through the host's transmit helper, and teardown via FIN.  The
   whole flood runs under conventional scheduling and again under LDLP;
   both must produce identical protocol behaviour, and the run reports
   the fast-path and PCB-cache hit rates the paper's analysis leans on. *)

module Core = Ldlp_core
module Tcp = Ldlp_packet.Tcp
open Ldlp_tcpmini

let connections =
  if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 5_000

let client_ip = Ldlp_packet.Addr.Ipv4.of_string "192.0.2.10"

let run ~discipline n =
  Tcp_input.reset_stats ();
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Host.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
      ~ip:(Ldlp_packet.Addr.Ipv4.of_string "192.0.2.1")
      ()
  in
  ignore (Host.listen host ~port:80);
  let tx = ref [] in
  let sched =
    Core.Engine.rx_chain ~discipline ~layers:(Host.layers host)
      ~down:(fun m ->
        match Host.parse_tx host m.Core.Msg.payload with
        | Some reply -> tx := reply :: !tx
        | None -> failwith "unparseable transmission")
      ()
  in
  let inject frame =
    Core.Engine.inject sched ~node:0
      (Core.Msg.make ~size:(Ldlp_buf.Mbuf.length frame) (Host.wrap host frame))
  in
  let drain () =
    Core.Engine.run sched;
    let out = List.rev !tx in
    tx := [];
    out
  in
  let served = ref 0 and responses = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let src_port = 1024 + (i mod 60000) in
    (* Handshake. *)
    inject
      (Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80
         ~seq:100 ~ack:0 ~flags:Tcp.flag_syn ());
    let syn_ack_seq =
      match drain () with
      | [ (h, _) ] -> h.Tcp.seq
      | l -> failwith (Printf.sprintf "expected SYN-ACK, got %d" (List.length l))
    in
    inject
      (Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80
         ~seq:101 ~ack:(Tcp.seq_add syn_ack_seq 1) ~flags:Tcp.flag_ack ());
    ignore (drain ());
    (* Request: two segments, so the delayed-ACK policy fires exactly once. *)
    inject
      (Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80
         ~seq:101 ~ack:0 ~flags:(Tcp.flag_ack lor Tcp.flag_psh)
         ~payload:(Bytes.of_string "GET /object HT") ());
    inject
      (Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80
         ~seq:115 ~ack:0 ~flags:(Tcp.flag_ack lor Tcp.flag_psh)
         ~payload:(Bytes.of_string "TP/1.0\r\n\r\n") ());
    ignore (drain ());
    (* Serve: read the request from the socket buffer, send 512 bytes. *)
    (match
       Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, src_port)
     with
    | Some pcb when Sockbuf.length pcb.Pcb.sockbuf > 0 ->
      ignore (Sockbuf.read_all pcb.Pcb.sockbuf);
      incr served;
      (match Host.send host pcb (Bytes.make 512 'x') with
      | Some frame ->
        incr responses;
        Ldlp_buf.Mbuf.free pool frame
      | None -> failwith "send refused");
      (* Teardown from the client. *)
      inject
        (Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80
           ~seq:125 ~ack:0 ~flags:(Tcp.flag_fin lor Tcp.flag_ack) ());
      ignore (drain ());
      Pcb.drop (Host.table host) pcb
    | _ -> failwith "request not delivered");
    ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, !served, !responses, Tcp_input.stats (), Pcb.stats (Host.table host), host)

let () =
  Printf.printf
    "TCP request/response server: %d connections, full handshake + 2-segment \
     request + 512 B response + FIN\n\n"
    connections;
  let show name (dt, served, responses, (ts : Tcp_input.stats), (ps : Pcb.stats), host) =
    let c = Host.counters host in
    Printf.printf
      "%-13s %6d served, %6d responses in %6.3f s -> %8.0f conn/s | fastpath \
       %d/%d | pcb cache %.0f%% | %d frames in\n"
      name served responses dt
      (float_of_int served /. dt)
      ts.Tcp_input.fastpath_hits
      (ts.Tcp_input.fastpath_hits + ts.Tcp_input.slowpath)
      (100.0 *. float_of_int ps.Pcb.cache_hits /. float_of_int (max 1 ps.Pcb.lookups))
      c.Host.frames_in
  in
  show "conventional" (run ~discipline:Core.Engine.Conventional connections);
  show "ldlp"
    (run ~discipline:(Core.Engine.Ldlp Core.Batch.paper_default) connections);
  print_newline ();
  Printf.printf
    "Both disciplines run the identical TCP state machine; the paper's\n\
     point is that on a small-cache CPU the LDLP schedule pays the stack's\n\
     ~36 KB working set once per batch instead of once per segment.\n"
