(* Tests for the DNS-lite substrate: name codec (including compression
   pointers), message codec, the authoritative server, and the full
   ether/ip/udp/dns stack under both scheduling disciplines. *)

open Ldlp_dnslite

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ---------- Name ---------- *)

let test_name_roundtrip () =
  let n = Name.of_string "www.example.com" in
  checks "to_string" "www.example.com" (Name.to_string n);
  let buf = Bytes.create (Name.encoded_length n) in
  let stop = Name.encode n buf 0 in
  checki "encoded length" 17 stop;
  match Name.decode buf 0 with
  | Ok (n', stop') ->
    check "equal" true (Name.equal n n');
    checki "offset" stop stop'
  | Error _ -> Alcotest.fail "decode failed"

let test_name_case_insensitive () =
  check "case" true
    (Name.equal (Name.of_string "WWW.Example.COM") (Name.of_string "www.example.com"))

let test_name_validation () =
  check "empty label" true
    (try ignore (Name.of_string "a..b"); false with Invalid_argument _ -> true);
  check "long label" true
    (try ignore (Name.of_string (String.make 64 'x')); false
     with Invalid_argument _ -> true)

let test_name_compression_pointer () =
  (* Encode "example.com" at offset 0, then a pointer to it at offset 13. *)
  let n = Name.of_string "example.com" in
  let buf = Bytes.create 32 in
  let stop = Name.encode n buf 0 in
  Bytes.set buf stop '\xC0';
  Bytes.set buf (stop + 1) '\x00';
  (match Name.decode buf stop with
  | Ok (n', next) ->
    check "pointer resolves" true (Name.equal n n');
    checki "pointer consumes 2 bytes" (stop + 2) next
  | Error _ -> Alcotest.fail "pointer decode failed");
  (* A self-pointing pointer must be rejected. *)
  Bytes.set buf 20 '\xC0';
  Bytes.set buf 21 (Char.chr 20);
  match Name.decode buf 20 with
  | Error `Pointer_loop -> ()
  | _ -> Alcotest.fail "expected pointer loop"

let test_name_truncated () =
  match Name.decode (Bytes.of_string "\x05ab") 0 with
  | Error `Truncated -> ()
  | _ -> Alcotest.fail "expected truncated"

let name_gen =
  QCheck.Gen.(
    map
      (fun labels -> (labels : string list))
      (list_size (1 -- 4)
         (map
            (fun (c, s) -> String.make 1 c ^ s)
            (pair (char_range 'a' 'z') (string_size ~gen:(char_range 'a' 'z') (0 -- 10))))))

let prop_name_roundtrip =
  QCheck.Test.make ~name:"name encode/decode roundtrip" ~count:300
    (QCheck.make ~print:(String.concat ".") name_gen)
    (fun n ->
      let buf = Bytes.create (Name.encoded_length n) in
      let stop = Name.encode n buf 0 in
      match Name.decode buf 0 with
      | Ok (n', stop') -> Name.equal n n' && stop = stop'
      | Error _ -> false)

(* ---------- Dnsmsg ---------- *)

let test_query_roundtrip () =
  let q = Dnsmsg.query ~id:0xBEEF (Name.of_string "ns.example.org") in
  match Dnsmsg.decode (Dnsmsg.encode q) with
  | Error _ -> Alcotest.fail "decode failed"
  | Ok q' ->
    checki "id" 0xBEEF q'.Dnsmsg.id;
    check "query bit" false q'.Dnsmsg.response;
    check "rd" true q'.Dnsmsg.recursion_desired;
    checki "one question" 1 (List.length q'.Dnsmsg.questions);
    check "name" true
      (Name.equal (List.hd q'.Dnsmsg.questions).Dnsmsg.qname
         (Name.of_string "ns.example.org"))

let test_response_roundtrip_with_compression () =
  let name = Name.of_string "a.example.net" in
  let q = Dnsmsg.query ~id:7 name in
  let answers =
    [
      { Dnsmsg.name; ttl = 300l; addr = Ldlp_packet.Addr.Ipv4.of_string "10.0.0.1" };
      { Dnsmsg.name; ttl = 300l; addr = Ldlp_packet.Addr.Ipv4.of_string "10.0.0.2" };
    ]
  in
  let r = Dnsmsg.response ~answers ~rcode:Dnsmsg.No_error q in
  let wire = Dnsmsg.encode r in
  (* Compression: the answer names must be 2-byte pointers, so the message
     is small. *)
  checki "wire size with pointers"
    (12 + Name.encoded_length name + 4 + (2 * (2 + 10 + 4)))
    (Bytes.length wire);
  match Dnsmsg.decode wire with
  | Error _ -> Alcotest.fail "decode failed"
  | Ok r' ->
    check "response bit" true r'.Dnsmsg.response;
    checki "answers" 2 (List.length r'.Dnsmsg.answers);
    List.iter
      (fun a -> check "answer name via pointer" true (Name.equal name a.Dnsmsg.name))
      r'.Dnsmsg.answers;
    checks "first addr" "10.0.0.1"
      (Ldlp_packet.Addr.Ipv4.to_string (List.hd r'.Dnsmsg.answers).Dnsmsg.addr)

let test_nxdomain_roundtrip () =
  let q = Dnsmsg.query ~id:9 (Name.of_string "nope.invalid") in
  let r = Dnsmsg.response ~rcode:Dnsmsg.Nxdomain q in
  match Dnsmsg.decode (Dnsmsg.encode r) with
  | Ok r' -> check "rcode" true (r'.Dnsmsg.rcode = Dnsmsg.Nxdomain)
  | Error _ -> Alcotest.fail "decode failed"

let test_decode_garbage () =
  match Dnsmsg.decode (Bytes.create 3) with
  | Error (`Too_short 3) -> ()
  | _ -> Alcotest.fail "expected Too_short"

(* ---------- Server ---------- *)

let make_server () =
  Server.create
    ~zone:
      [
        ("www.example.com", "93.184.216.34");
        ("www.example.com", "93.184.216.35");
        ("mail.example.com", "93.184.216.40");
      ]
    ()

let test_server_answers () =
  let srv = make_server () in
  let q = Dnsmsg.query ~id:1 (Name.of_string "WWW.example.COM") in
  match Server.handle srv (Dnsmsg.encode q) with
  | None -> Alcotest.fail "no response"
  | Some wire -> (
    match Dnsmsg.decode wire with
    | Ok r ->
      checki "two A records" 2 (List.length r.Dnsmsg.answers);
      checki "id echoed" 1 r.Dnsmsg.id;
      checki "stats answered" 1 (Server.stats srv).Server.answered
    | Error _ -> Alcotest.fail "bad response")

let test_server_nxdomain () =
  let srv = make_server () in
  let q = Dnsmsg.query ~id:2 (Name.of_string "missing.example.com") in
  match Server.handle srv (Dnsmsg.encode q) with
  | Some wire -> (
    match Dnsmsg.decode wire with
    | Ok r ->
      check "nxdomain" true (r.Dnsmsg.rcode = Dnsmsg.Nxdomain);
      checki "no answers" 0 (List.length r.Dnsmsg.answers)
    | Error _ -> Alcotest.fail "bad response")
  | None -> Alcotest.fail "no response"

let test_server_ignores_responses () =
  let srv = make_server () in
  let q = Dnsmsg.query ~id:3 (Name.of_string "www.example.com") in
  let r = Dnsmsg.response ~rcode:Dnsmsg.No_error q in
  check "response dropped" true (Server.handle srv (Dnsmsg.encode r) = None);
  checki "refused counted" 1 (Server.stats srv).Server.refused

let test_server_malformed () =
  let srv = make_server () in
  check "garbage dropped" true (Server.handle srv (Bytes.create 5) = None);
  checki "malformed counted" 1 (Server.stats srv).Server.malformed

(* ---------- Full stack ---------- *)

let client_ip = Ldlp_packet.Addr.Ipv4.of_string "198.51.100.9"

let run_stack ~discipline queries =
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Dnshost.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:53")
      ~ip:(Ldlp_packet.Addr.Ipv4.of_string "203.0.113.53")
      ~server:(make_server ()) ()
  in
  let replies = ref [] in
  let sched =
    Ldlp_core.Engine.rx_chain ~discipline ~layers:(Dnshost.layers host)
      ~down:(fun m ->
        match Dnshost.parse_tx host m.Ldlp_core.Msg.payload with
        | Some r -> replies := r :: !replies
        | None -> Alcotest.fail "unparseable reply")
      ()
  in
  List.iteri
    (fun i name ->
      let frame =
        Dnshost.client_query host ~src_ip:client_ip ~src_port:(10000 + i)
          (Dnsmsg.query ~id:i (Name.of_string name))
      in
      Ldlp_core.Engine.inject sched ~node:0
        (Ldlp_core.Msg.make
           ~size:(Ldlp_buf.Mbuf.length frame)
           (Dnshost.wrap host frame)))
    queries;
  Ldlp_core.Engine.run sched;
  (host, List.rev !replies)

let test_stack_end_to_end () =
  let host, replies =
    run_stack ~discipline:Ldlp_core.Engine.Conventional
      [ "www.example.com"; "missing.example.com"; "mail.example.com" ]
  in
  checki "three replies" 3 (List.length replies);
  (match replies with
  | [ (r1, p1); (r2, _); (r3, _) ] ->
    checki "reply to client port" 10000 p1;
    checki "answers for www" 2 (List.length r1.Dnsmsg.answers);
    check "nxdomain for missing" true (r2.Dnsmsg.rcode = Dnsmsg.Nxdomain);
    checki "answer for mail" 1 (List.length r3.Dnsmsg.answers)
  | _ -> Alcotest.fail "replies");
  let c = Dnshost.counters host in
  checki "frames in" 3 c.Dnshost.frames_in;
  checki "all replied" 3 c.Dnshost.replies

let test_stack_ldlp_equals_conventional () =
  let queries = List.init 30 (fun i ->
      if i mod 3 = 0 then "www.example.com"
      else if i mod 3 = 1 then "mail.example.com"
      else "nope.example.com")
  in
  let _, conv = run_stack ~discipline:Ldlp_core.Engine.Conventional queries in
  let _, ldlp =
    run_stack ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
      queries
  in
  checki "same reply count" (List.length conv) (List.length ldlp);
  List.iter2
    (fun (a, pa) (b, pb) ->
      checki "same port" pa pb;
      checki "same id" a.Dnsmsg.id b.Dnsmsg.id;
      check "same rcode" true (a.Dnsmsg.rcode = b.Dnsmsg.rcode);
      checki "same answers" (List.length a.Dnsmsg.answers) (List.length b.Dnsmsg.answers))
    conv ldlp

let test_stack_drops_foreign_traffic () =
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Dnshost.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:53")
      ~ip:(Ldlp_packet.Addr.Ipv4.of_string "203.0.113.53")
      ~server:(make_server ()) ()
  in
  let sched =
    Ldlp_core.Engine.rx_chain ~discipline:Ldlp_core.Engine.Conventional
      ~layers:(Dnshost.layers host) ()
  in
  (* A frame to the wrong UDP port. *)
  let q = Dnsmsg.query ~id:5 (Name.of_string "www.example.com") in
  let frame = Dnshost.client_query host ~src_ip:client_ip ~src_port:10 q in
  (* Rewrite the destination port: easiest is to build a fresh frame via a
     host configured on another port. *)
  let other =
    Dnshost.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:53")
      ~ip:(Ldlp_packet.Addr.Ipv4.of_string "203.0.113.53")
      ~port:5353 ~server:(make_server ()) ()
  in
  let wrong_port = Dnshost.client_query other ~src_ip:client_ip ~src_port:10 q in
  Ldlp_buf.Mbuf.free pool frame;
  Ldlp_core.Engine.inject sched ~node:0
    (Ldlp_core.Msg.make
       ~size:(Ldlp_buf.Mbuf.length wrong_port)
       (Dnshost.wrap host wrong_port));
  Ldlp_core.Engine.run sched;
  let c = Dnshost.counters host in
  checki "not for us" 1 c.Dnshost.not_for_us;
  checki "no replies" 0 c.Dnshost.replies

let suite =
  [
    Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
    Alcotest.test_case "name case" `Quick test_name_case_insensitive;
    Alcotest.test_case "name validation" `Quick test_name_validation;
    Alcotest.test_case "name compression" `Quick test_name_compression_pointer;
    Alcotest.test_case "name truncated" `Quick test_name_truncated;
    QCheck_alcotest.to_alcotest prop_name_roundtrip;
    Alcotest.test_case "query roundtrip" `Quick test_query_roundtrip;
    Alcotest.test_case "response + compression" `Quick
      test_response_roundtrip_with_compression;
    Alcotest.test_case "nxdomain roundtrip" `Quick test_nxdomain_roundtrip;
    Alcotest.test_case "decode garbage" `Quick test_decode_garbage;
    Alcotest.test_case "server answers" `Quick test_server_answers;
    Alcotest.test_case "server nxdomain" `Quick test_server_nxdomain;
    Alcotest.test_case "server ignores responses" `Quick test_server_ignores_responses;
    Alcotest.test_case "server malformed" `Quick test_server_malformed;
    Alcotest.test_case "stack end to end" `Quick test_stack_end_to_end;
    Alcotest.test_case "stack ldlp = conventional" `Quick
      test_stack_ldlp_equals_conventional;
    Alcotest.test_case "stack drops foreign" `Quick test_stack_drops_foreign_traffic;
  ]
