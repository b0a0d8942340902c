(* Tests for the simulated network, culminating in the flagship
   integration: two complete TCP/IP hosts (tcpmini) exchanging a
   request/response over a latency link, each running its stack under the
   LDLP scheduler behind a coalescing NIC. *)

open Ldlp_netsim

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ---------- plumbing with plain int frames ---------- *)

let test_link_delivery_and_latency () =
  let net = Netsim.create () in
  let got = ref [] in
  let a =
    Netsim.add_node net ~name:"a"
      ~service:(fun nic ->
        List.iter (fun f -> got := ("a", f) :: !got) (Ldlp_nic.Nic.take_all nic))
      ()
  in
  let b =
    Netsim.add_node net ~name:"b"
      ~service:(fun nic ->
        let frames = Ldlp_nic.Nic.take_all nic in
        (* Echo every frame back, doubled. *)
        List.iter (fun f -> ignore (Ldlp_nic.Nic.transmit nic (f * 2))) frames)
      ()
  in
  Netsim.connect net a b ~latency:0.001 ();
  (* Push a frame out of [a] toward [b]. *)
  ignore (Ldlp_nic.Nic.transmit (Netsim.nic a) 21);
  Netsim.kick net a;
  Netsim.run net;
  Alcotest.(check (list (pair string int))) "echoed doubled" [ ("a", 42) ] !got;
  check "time advanced by 2 link trips + service latencies" true
    (Ldlp_sim.Engine.now (Netsim.engine net) >= 0.002)

let test_inject_and_irq () =
  let net = Netsim.create () in
  let serviced = ref 0 in
  let n =
    Netsim.add_node net ~name:"n"
      ~service:(fun nic ->
        serviced := !serviced + List.length (Ldlp_nic.Nic.take_all nic))
      ()
  in
  Netsim.inject net n 1;
  Netsim.inject net n 2;
  Netsim.inject net n ~at:0.5 3;
  Netsim.run net;
  checki "all serviced" 3 !serviced

let test_coalescing_batches_service () =
  let net = Netsim.create () in
  let batches = ref [] in
  let n =
    Netsim.add_node net ~name:"n"
      ~nic:(Ldlp_nic.Nic.create ~irq:(Ldlp_nic.Nic.Coalesced 8) ())
      ~irq_latency:1e-4
      ~service:(fun nic ->
        batches := List.length (Ldlp_nic.Nic.take_all nic) :: !batches)
      ()
  in
  (* 16 frames arriving together: with 8-frame coalescing the service
     fires once the first 8 are in; by the time it runs (100 us later) all
     16 are buffered — one big batch, the LDLP intake. *)
  for i = 1 to 16 do
    Netsim.inject net n ~at:1e-6 i
  done;
  Netsim.run net;
  checki "one service call" 1 (List.length !batches);
  checki "whole burst in one batch" 16 (List.hd !batches)

let test_double_connect_rejected () =
  let net = Netsim.create () in
  let mk name = Netsim.add_node net ~name ~service:(fun _ -> ()) () in
  let a = mk "a" and b = mk "b" and c = mk "c" in
  Netsim.connect net a b ~latency:0.0 ();
  check "relink rejected" true
    (try
       Netsim.connect net a c ~latency:0.0 ();
       false
     with Invalid_argument _ -> true)

let test_lossy_link () =
  let net = Netsim.create () in
  let received = ref 0 in
  let a =
    Netsim.add_node net ~name:"a"
      ~nic:(Ldlp_nic.Nic.create ~tx_slots:512 ())
      ~service:(fun _ -> ())
      ()
  in
  let b =
    Netsim.add_node net ~name:"b"
      ~nic:(Ldlp_nic.Nic.create ~rx_slots:512 ())
      ~service:(fun nic ->
        received := !received + List.length (Ldlp_nic.Nic.take_all nic))
      ()
  in
  Netsim.connect net a b ~latency:1e-4 ~loss:0.5 ~seed:7 ();
  for i = 1 to 200 do
    ignore (Ldlp_nic.Nic.transmit (Netsim.nic a) i)
  done;
  Netsim.kick net a;
  Netsim.run net;
  check
    (Printf.sprintf "roughly half delivered (%d/200)" !received)
    true
    (!received > 70 && !received < 130)

(* ---------- two TCP hosts over the wire ---------- *)

module Host = Ldlp_tcpmini.Host
module Pcb = Ldlp_tcpmini.Pcb
module Sockbuf = Ldlp_tcpmini.Sockbuf

(* A node wrapping a tcpmini host behind an LDLP scheduler: the service
   drains the NIC into the scheduler, runs it, and forwards the stack's
   transmissions back into the NIC. *)
let tcp_node net ~name ~ip ~discipline ~on_service =
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Host.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
      ~ip:(Ldlp_packet.Addr.Ipv4.of_string ip)
      ()
  in
  let nic = Ldlp_nic.Nic.create ~irq:(Ldlp_nic.Nic.Coalesced 4) () in
  let sched =
    Ldlp_core.Engine.rx_chain ~discipline ~layers:(Host.layers host)
      ~down:(fun m ->
        ignore (Ldlp_nic.Nic.transmit nic m.Ldlp_core.Msg.payload.Host.buf))
      ()
  in
  let node =
    Netsim.add_node net ~name ~nic
      ~service:(fun nic ->
        ignore
          (Ldlp_nic.Nic.service_into nic sched ~node:0 ~wrap:(fun frame ->
               Ldlp_core.Msg.make
                 ~size:(Ldlp_buf.Mbuf.length frame)
                 (Host.wrap host frame)));
        Ldlp_core.Engine.run sched;
        on_service host nic)
      ()
  in
  (host, node)

let two_host_exchange ~discipline =
  let net = Netsim.create () in
  let served = ref false in
  let server_on_service host nic =
    (* Application: when the request has arrived, send a response. *)
    match
      Pcb.lookup (Host.table host) ~local_port:80
        ~remote:(Ldlp_packet.Addr.Ipv4.of_string "10.9.0.2", 43210)
    with
    | Some pcb
      when pcb.Pcb.state = Pcb.Established
           && Sockbuf.length pcb.Pcb.sockbuf >= 9
           && not !served -> (
      let req = Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf) in
      checks "request content" "GET /life" req;
      served := true;
      match Host.send host pcb (Bytes.of_string "HTTP/1.0 200 OK; 42") with
      | Some frame -> ignore (Ldlp_nic.Nic.transmit nic frame)
      | None -> Alcotest.fail "server send refused")
    | _ -> ()
  in
  let server_host, server_node =
    tcp_node net ~name:"server" ~ip:"10.9.0.1" ~discipline
      ~on_service:server_on_service
  in
  ignore (Host.listen server_host ~port:80);
  let client_sent = ref false in
  let client_on_service host nic =
    match
      Pcb.lookup (Host.table host) ~local_port:43210
        ~remote:(Ldlp_packet.Addr.Ipv4.of_string "10.9.0.1", 80)
    with
    | Some pcb when pcb.Pcb.state = Pcb.Established && not !client_sent -> (
      client_sent := true;
      match Host.send host pcb (Bytes.of_string "GET /life") with
      | Some frame -> ignore (Ldlp_nic.Nic.transmit nic frame)
      | None -> Alcotest.fail "client send refused")
    | _ -> ()
  in
  let client_host, client_node =
    tcp_node net ~name:"client" ~ip:"10.9.0.2" ~discipline
      ~on_service:client_on_service
  in
  Netsim.connect net client_node server_node ~latency:0.001 ();
  (* Active open from the client. *)
  let pcb, syn =
    Host.connect client_host
      ~dst:(Ldlp_packet.Addr.Ipv4.of_string "10.9.0.1", 80)
      ~src_port:43210
  in
  ignore (Ldlp_nic.Nic.transmit (Netsim.nic client_node) syn);
  Netsim.kick net client_node;
  Netsim.run ~until:5.0 net;
  check "request served" true !served;
  check "client established" true (pcb.Pcb.state = Pcb.Established);
  checks "response delivered to client app" "HTTP/1.0 200 OK; 42"
    (Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf));
  (* Round-trip time sanity: at least SYN, SYN-ACK, request, response
     across a 1 ms link. *)
  check "simulated time plausible" true
    (Ldlp_sim.Engine.now (Netsim.engine net) >= 0.004)

let test_two_hosts_conventional () =
  two_host_exchange ~discipline:Ldlp_core.Engine.Conventional

let test_two_hosts_ldlp () =
  two_host_exchange
    ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)

let suite =
  [
    Alcotest.test_case "link delivery" `Quick test_link_delivery_and_latency;
    Alcotest.test_case "inject + irq" `Quick test_inject_and_irq;
    Alcotest.test_case "coalescing batches" `Quick test_coalescing_batches_service;
    Alcotest.test_case "double connect" `Quick test_double_connect_rejected;
    Alcotest.test_case "lossy link" `Quick test_lossy_link;
    Alcotest.test_case "two TCP hosts (conventional)" `Quick test_two_hosts_conventional;
    Alcotest.test_case "two TCP hosts (ldlp)" `Quick test_two_hosts_ldlp;
  ]
