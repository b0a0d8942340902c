(* A DNS-lite authoritative server under LDLP — the very first protocol
   the paper's introduction names as a small-message protocol.

     dune exec examples/dns_server.exe [-- <queries>]

   A ~40-byte query and a ~60-byte response cross a four-layer stack
   (ether / ip / udp / dns); the protocol code involved dwarfs the
   messages, which is precisely the paper's "small-message protocol"
   regime (Figure 4).  The flood measures wall-clock query throughput
   under both disciplines, and the blocking analysis projects the stack
   onto the paper's 8 KB-cache machine. *)

module Core = Ldlp_core
open Ldlp_dnslite

let queries =
  if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 50_000

let client_ip = Ldlp_packet.Addr.Ipv4.of_string "198.51.100.9"

let zone =
  [
    ("www.example.com", "93.184.216.34");
    ("www.example.com", "93.184.216.35");
    ("mail.example.com", "93.184.216.40");
    ("ns1.example.com", "93.184.216.2");
    ("ftp.example.com", "93.184.216.50");
  ]

let names =
  [|
    "www.example.com"; "mail.example.com"; "ns1.example.com";
    "ftp.example.com"; "nosuch.example.com";
  |]

let run ~discipline n =
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Dnshost.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:53")
      ~ip:(Ldlp_packet.Addr.Ipv4.of_string "203.0.113.53")
      ~server:(Server.create ~zone ()) ()
  in
  let replies = ref 0 in
  let sched =
    Core.Engine.rx_chain ~discipline ~layers:(Dnshost.layers host)
      ~down:(fun m ->
        incr replies;
        Ldlp_buf.Mbuf.free pool m.Core.Msg.payload.Dnshost.buf)
      ()
  in
  (* Pre-build the query frames so the timed section is pure stack work. *)
  let frames =
    List.init n (fun i ->
        Dnshost.client_query host ~src_ip:client_ip
          ~src_port:(1024 + (i mod 60000))
          (Dnsmsg.query ~id:(i land 0xFFFF)
             (Name.of_string names.(i mod Array.length names))))
  in
  let t0 = Unix.gettimeofday () in
  let rec feed = function
    | [] -> ()
    | frames ->
      (* 32-frame bursts, as a NIC ring service would hand over. *)
      let rec take k acc rest =
        if k = 0 then (acc, rest)
        else match rest with [] -> (acc, []) | f :: tl -> take (k - 1) (f :: acc) tl
      in
      let burst, rest = take 32 [] frames in
      List.iter
        (fun f ->
          Core.Engine.inject sched ~node:0
            (Core.Msg.make ~size:(Ldlp_buf.Mbuf.length f) (Dnshost.wrap host f)))
        (List.rev burst);
      Core.Engine.run sched;
      feed rest
  in
  feed frames;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, !replies, Server.stats (Dnshost.server host), Core.Engine.stats sched)

let () =
  Printf.printf "DNS-lite flood: %d A queries over ether/ip/udp/dns\n\n" queries;
  let show name (dt, replies, (s : Server.stats), st) =
    Printf.printf
      "%-13s %7d replies (%d answered, %d nxdomain) in %6.3f s -> %8.0f qps, max batch %d\n"
      name replies s.Server.answered s.Server.nxdomain dt
      (float_of_int replies /. dt)
      st.Core.Engine.max_batch;
    assert (replies = queries);
    assert (s.Server.malformed = 0)
  in
  show "conventional" (run ~discipline:Core.Engine.Conventional queries);
  show "ldlp" (run ~discipline:(Core.Engine.Ldlp Core.Batch.paper_default) queries);
  (* Project this stack onto the paper's machine. *)
  let shape =
    {
      Core.Blocking.layer_code_bytes = [ 4480; 2784; 1500; 3000 ];
      layer_data_bytes = [ 128; 128; 64; 2048 ];
      msg_bytes = 80;
      cycles_per_msg = 4 * 1400;
    }
  in
  Format.printf "@.On the paper's 8 KB-cache machine:@.%a@."
    Core.Blocking.pp_recommendation
    (Core.Blocking.recommend Core.Blocking.paper_machine shape)
