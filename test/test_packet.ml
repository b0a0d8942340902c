(* Tests for the packet codecs and the two checksum implementations. *)

open Ldlp_packet

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

let pool = Ldlp_buf.Pool.create ()

(* ---------- checksum ---------- *)

let test_cksum_rfc1071_example () =
  (* RFC 1071's worked example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2,
     checksum is its complement 220d. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  checki "simple" 0x220D (Cksum.simple b 0 8);
  checki "unrolled" 0x220D (Cksum.unrolled b 0 8)

let test_cksum_empty_and_odd () =
  let b = Bytes.of_string "\xff" in
  checki "empty" 0xFFFF (Cksum.simple b 0 0);
  checki "single odd byte" (lnot 0xFF00 land 0xFFFF) (Cksum.simple b 0 1)

let test_cksum_verifies_to_zero () =
  (* Appending the checksum makes the whole range sum to zero. *)
  let b = Bytes.of_string "\x45\x00\x00\x54\x00\x00\x40\x00\x40\x01" in
  let c = Cksum.simple b 0 10 in
  let full = Bytes.cat b (Bytes.of_string (Printf.sprintf "%c%c" (Char.chr (c lsr 8)) (Char.chr (c land 0xFF)))) in
  checki "self-verifies" 0 (Cksum.simple full 0 12)

let bytes_arb =
  QCheck.make
    ~print:(fun b -> String.escaped (Bytes.to_string b))
    QCheck.Gen.(map Bytes.of_string (string_size (0 -- 1500)))

let prop_simple_eq_unrolled =
  QCheck.Test.make ~name:"simple = unrolled on arbitrary input" ~count:500
    bytes_arb (fun b ->
      Cksum.simple b 0 (Bytes.length b) = Cksum.unrolled b 0 (Bytes.length b))

let prop_chain_eq_flat =
  QCheck.Test.make ~name:"chain checksum = flat checksum" ~count:300 bytes_arb
    (fun b ->
      let m = Ldlp_buf.Mbuf.of_bytes pool b in
      let flat = Cksum.simple b 0 (Bytes.length b) in
      let r = Cksum.simple_chain m = flat && Cksum.unrolled_chain m = flat in
      Ldlp_buf.Mbuf.free pool m;
      r)

let prop_chain_eq_flat_with_splits =
  QCheck.Test.make ~name:"chain checksum invariant under split points"
    ~count:300
    QCheck.(pair bytes_arb (int_bound 1400))
    (fun (b, n) ->
      let n = min n (Bytes.length b) in
      let m = Ldlp_buf.Mbuf.of_bytes pool b in
      let front, back = Ldlp_buf.Mbuf.split pool m n in
      let joined = Ldlp_buf.Mbuf.concat front back in
      let r = Cksum.simple_chain joined = Cksum.simple b 0 (Bytes.length b) in
      Ldlp_buf.Mbuf.free pool joined;
      r)

(* The checksum routines against a byte-at-a-time reference: the plain
   sum of the range's big-endian 16-bit words, a trailing odd byte being
   the high byte of a last word.  The routines load whole words in host
   byte order and may return the sum folded, so only [Cksum.finish] of a
   sum, alone or with a pseudo-header sum added, is compared. *)
let reference_partial b off len =
  let s = ref 0 in
  for k = 0 to len - 1 do
    let v = Char.code (Bytes.get b (off + k)) in
    s := !s + if k land 1 = 0 then v lsl 8 else v
  done;
  !s

(* Random bytes, or one repeated 0x00 or 0xFF byte (the all-zero and
   all-ones sums, where a fold could answer 0 for 0xFFFF), at an odd or
   even offset, with a random pseudo-header sum of [pseudo_header_sum]'s
   range. *)
let cksum_case_arb =
  let open QCheck.Gen in
  let gen =
    int_range 0 1500 >>= fun len ->
    int_range 0 3 >>= fun off ->
    let size = off + len + 3 in
    frequency
      [
        (4, string_size ~gen:char (return size));
        (1, map (String.make size) (oneofl [ '\000'; '\255' ]));
      ]
    >>= fun s ->
    int_range 0 0x5FFFF >|= fun pseudo -> (Bytes.of_string s, off, len, pseudo)
  in
  QCheck.make
    ~print:(fun (b, off, len, pseudo) ->
      Printf.sprintf "off=%d len=%d pseudo=%#x bytes=%S" off len pseudo
        (Bytes.to_string b))
    gen

let prop_partial_eq_reference =
  QCheck.Test.make ~name:"partial sums = byte-wise big-endian reference"
    ~count:500 cksum_case_arb (fun (b, off, len, pseudo) ->
      let expect = reference_partial b off len in
      List.for_all
        (fun partial ->
          let p = partial b off len in
          Cksum.finish p = Cksum.finish expect
          && Cksum.finish (pseudo + p) = Cksum.finish (pseudo + expect))
        [ Cksum.partial; Cksum.unrolled_partial ])

(* [b] as an mbuf chain cut at each of [cuts] (taken modulo its length),
   so that pieces of odd length and at odd offsets occur. *)
let chain_cut_at b cuts =
  let len = Bytes.length b in
  let cuts = List.sort_uniq Int.compare (List.map (fun c -> c mod (len + 1)) cuts) in
  let rec go m base = function
    | [] -> m
    | c :: rest ->
      let front, back = Ldlp_buf.Mbuf.split pool m (c - base) in
      Ldlp_buf.Mbuf.concat front (go back c rest)
  in
  go (Ldlp_buf.Mbuf.of_bytes pool b) 0 cuts

(* A segment in a chain cut at random points: [simple_chain] equals the
   reference, and [Tcp.verify_checksum] agrees with it.  When [fix] is
   set and the segment is long enough, the checksum field (bytes 16-17)
   is first filled in from the reference, so both verdicts occur. *)
let prop_chain_and_verify_eq_reference =
  QCheck.Test.make ~name:"chain checksum and TCP verify = byte-wise reference"
    ~count:300
    QCheck.(triple cksum_case_arb (list_of_size Gen.(0 -- 4) (int_bound 1500)) bool)
    (fun ((b, off, len, _), cuts, fix) ->
      let seg = Bytes.sub b off len in
      let src = Addr.Ipv4.of_string "10.0.0.1"
      and dst = Addr.Ipv4.of_string "192.0.2.77" in
      let pseudo =
        Ipv4.pseudo_header_sum ~src ~dst ~protocol:Ipv4.proto_tcp ~len
      in
      if fix && len >= Tcp.header_bytes then begin
        Bytes.set seg 16 '\000';
        Bytes.set seg 17 '\000';
        let c = Cksum.finish (pseudo + reference_partial seg 0 len) in
        Bytes.set seg 16 (Char.chr (c lsr 8));
        Bytes.set seg 17 (Char.chr (c land 0xFF))
      end;
      let expect = reference_partial seg 0 len in
      let m = chain_cut_at seg cuts in
      let r =
        Cksum.simple_chain m = Cksum.finish expect
        && Tcp.verify_checksum ~src ~dst m = (Cksum.finish (pseudo + expect) = 0)
        && ((not (fix && len >= Tcp.header_bytes)) || Tcp.verify_checksum ~src ~dst m)
      in
      Ldlp_buf.Mbuf.free pool m;
      r)

(* Allocation pins for the per-frame helpers, in the manner of the buf
   suite's "pool cycle allocates nothing": each runs [cycles] times, and
   the only words allowed are the ones the two [Gc.minor_words] reads
   produce. *)
let cycles = 10_000

let check_no_alloc what f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to cycles do
    f ()
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16.0 then
    Alcotest.failf "%d calls of %s allocated %.0f minor words" cycles what dw

let test_chain_checksum_zero_alloc () =
  let b = Bytes.init 301 (fun i -> Char.chr (i land 0xFF)) in
  let m = Ldlp_buf.Mbuf.of_bytes pool b in
  check "odd-length multi-segment chain" true (Ldlp_buf.Mbuf.nsegs m >= 2);
  check_no_alloc "Cksum.simple_chain" (fun () -> ignore (Cksum.simple_chain m));
  check_no_alloc "Cksum.unrolled_chain" (fun () -> ignore (Cksum.unrolled_chain m));
  let src = Addr.Ipv4.of_string "10.0.0.1" and dst = Addr.Ipv4.of_string "10.0.0.2" in
  check_no_alloc "Tcp.verify_checksum" (fun () ->
      ignore (Tcp.verify_checksum ~src ~dst m));
  Ldlp_buf.Mbuf.free pool m

let test_address_filters_zero_alloc () =
  let mac = Addr.Mac.of_string "02:00:00:00:00:01" in
  let ip = Addr.Ipv4.of_string "192.0.2.1" in
  let b = Bytes.make 40 '\000' in
  Addr.Mac.write mac b 0;
  Addr.Ipv4.write ip b 30;
  check "mac matches" true (Addr.Mac.equal_at mac b 0);
  check "ipv4 matches" true (Addr.Ipv4.equal_at ip b 30);
  check "ipv4 differs" false (Addr.Ipv4.equal_at ip b 29);
  check "ipv4 out of range" false (Addr.Ipv4.equal_at ip b 37);
  check_no_alloc "Addr.Mac.equal_at" (fun () -> ignore (Addr.Mac.equal_at mac b 0));
  check_no_alloc "Addr.Mac.is_broadcast_at" (fun () ->
      ignore (Addr.Mac.is_broadcast_at b 0));
  check_no_alloc "Addr.Ipv4.equal_at" (fun () -> ignore (Addr.Ipv4.equal_at ip b 30))

let test_cksum_footprints () =
  checki "paper simple footprint" 288 Cksum.code_bytes_simple;
  checki "paper elaborate footprint" 992 Cksum.code_bytes_unrolled

(* ---------- addresses ---------- *)

let test_mac_roundtrip () =
  let m = Addr.Mac.of_string "de:ad:be:ef:00:01" in
  checks "to_string" "de:ad:be:ef:00:01" (Addr.Mac.to_string m);
  let b = Bytes.create 6 in
  Addr.Mac.write m b 0;
  check "bytes roundtrip" true (Addr.Mac.equal m (Addr.Mac.of_bytes b 0));
  check "broadcast" true (Addr.Mac.is_broadcast Addr.Mac.broadcast);
  check "not broadcast" false (Addr.Mac.is_broadcast m)

let test_ipv4_roundtrip () =
  let a = Addr.Ipv4.of_string "192.168.1.42" in
  checks "to_string" "192.168.1.42" (Addr.Ipv4.to_string a);
  let b = Bytes.create 4 in
  Addr.Ipv4.write a b 0;
  check "bytes roundtrip" true (Addr.Ipv4.equal a (Addr.Ipv4.of_bytes b 0))

let test_bad_addresses () =
  check "bad mac" true
    (try ignore (Addr.Mac.of_string "nope"); false
     with Invalid_argument _ -> true);
  check "bad ip" true
    (try ignore (Addr.Ipv4.of_string "300.1.1.1"); false
     with Invalid_argument _ -> true)

(* ---------- ethernet ---------- *)

let eth_header () =
  {
    Ethernet.dst = Addr.Mac.of_string "aa:bb:cc:dd:ee:ff";
    src = Addr.Mac.of_string "11:22:33:44:55:66";
    ethertype = Ethernet.ethertype_ipv4;
  }

let test_ethernet_roundtrip () =
  let h = eth_header () in
  let b = Bytes.create 64 in
  Ethernet.build h b 0;
  match Ethernet.parse b 0 64 with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok (h', payload) ->
    checki "payload offset" 14 payload;
    check "dst" true (Addr.Mac.equal h.Ethernet.dst h'.Ethernet.dst);
    check "src" true (Addr.Mac.equal h.Ethernet.src h'.Ethernet.src);
    checki "ethertype" h.Ethernet.ethertype h'.Ethernet.ethertype

let test_ethernet_too_short () =
  match Ethernet.parse (Bytes.create 10) 0 10 with
  | Error (`Too_short 10) -> ()
  | _ -> Alcotest.fail "expected Too_short"

let test_ethernet_strip_encapsulate () =
  let h = eth_header () in
  let m = Ldlp_buf.Mbuf.of_string pool "datagram-bytes" in
  let m = Ethernet.encapsulate m h in
  checki "framed length" (14 + 14) (Ldlp_buf.Mbuf.length m);
  (match Ethernet.strip m with
  | Error _ -> Alcotest.fail "strip failed"
  | Ok h' -> checki "type preserved" h.Ethernet.ethertype h'.Ethernet.ethertype);
  checks "payload restored" "datagram-bytes"
    (Bytes.to_string (Ldlp_buf.Mbuf.to_bytes m));
  Ldlp_buf.Mbuf.free pool m

(* ---------- ipv4 ---------- *)

let ip_header ~len =
  {
    Ipv4.ihl = 5;
    tos = 0;
    total_length = len;
    ident = 0x1234;
    dont_fragment = true;
    more_fragments = false;
    fragment_offset = 0;
    ttl = 64;
    protocol = Ipv4.proto_tcp;
    src = Addr.Ipv4.of_string "10.0.0.1";
    dst = Addr.Ipv4.of_string "10.0.0.2";
  }

let test_ipv4_roundtrip_hdr () =
  let h = ip_header ~len:40 in
  let b = Bytes.create 40 in
  Ipv4.build h b 0;
  match Ipv4.parse b 0 40 with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok (h', off) ->
    checki "payload offset" 20 off;
    checki "total length" 40 h'.Ipv4.total_length;
    checki "ident" 0x1234 h'.Ipv4.ident;
    check "df" true h'.Ipv4.dont_fragment;
    checki "ttl" 64 h'.Ipv4.ttl;
    check "src" true (Addr.Ipv4.equal h.Ipv4.src h'.Ipv4.src);
    check "not fragment" false (Ipv4.is_fragment h')

let test_ipv4_bad_checksum () =
  let h = ip_header ~len:40 in
  let b = Bytes.create 40 in
  Ipv4.build h b 0;
  Bytes.set b 8 '\x01' (* corrupt ttl *);
  match Ipv4.parse b 0 40 with
  | Error `Bad_checksum -> ()
  | _ -> Alcotest.fail "expected Bad_checksum"

let test_ipv4_bad_version () =
  let b = Bytes.make 20 '\x00' in
  Bytes.set b 0 '\x65';
  match Ipv4.parse b 0 20 with
  | Error (`Bad_version 6) -> ()
  | _ -> Alcotest.fail "expected Bad_version 6"

let test_ipv4_strip_encapsulate () =
  let m = Ldlp_buf.Mbuf.of_string pool "tcp-segment-here" in
  let m = Ipv4.encapsulate m (ip_header ~len:0) in
  checki "framed" 36 (Ldlp_buf.Mbuf.length m);
  (match Ipv4.strip m with
  | Error _ -> Alcotest.fail "strip failed"
  | Ok h' -> checki "total length" 36 h'.Ipv4.total_length);
  checks "payload" "tcp-segment-here"
    (Bytes.to_string (Ldlp_buf.Mbuf.to_bytes m));
  Ldlp_buf.Mbuf.free pool m

let test_ipv4_strip_drops_padding () =
  let m = Ldlp_buf.Mbuf.of_string pool "payload!" in
  let m = Ipv4.encapsulate m (ip_header ~len:0) in
  (* Link-layer padding past total_length must be trimmed on strip. *)
  Ldlp_buf.Mbuf.append_bytes pool m (Bytes.make 18 '\x00');
  (match Ipv4.strip m with
  | Error _ -> Alcotest.fail "strip failed"
  | Ok _ -> ());
  checks "padding gone" "payload!" (Bytes.to_string (Ldlp_buf.Mbuf.to_bytes m));
  Ldlp_buf.Mbuf.free pool m

(* ---------- tcp ---------- *)

let tcp_header =
  {
    Tcp.src_port = 1234;
    dst_port = 80;
    seq = 0x01020304;
    ack = 0xFA0B0C0D;
    data_offset = 5;
    flags = Tcp.flag_ack lor Tcp.flag_psh;
    window = 8760;
    urgent = 0;
  }

let test_tcp_roundtrip () =
  let b = Bytes.create 20 in
  Tcp.build tcp_header b 0;
  match Tcp.parse b 0 20 with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok (h', off) ->
    checki "offset" 20 off;
    checki "sport" 1234 h'.Tcp.src_port;
    checki "dport" 80 h'.Tcp.dst_port;
    checki "seq" tcp_header.Tcp.seq h'.Tcp.seq;
    checki "ack above 2^31" tcp_header.Tcp.ack h'.Tcp.ack;
    check "ack flag" true (Tcp.has_flag h' Tcp.flag_ack);
    check "psh flag" true (Tcp.has_flag h' Tcp.flag_psh);
    check "syn unset" false (Tcp.has_flag h' Tcp.flag_syn);
    checki "window" 8760 h'.Tcp.window

let test_tcp_checksum_roundtrip () =
  let src = Addr.Ipv4.of_string "10.0.0.1"
  and dst = Addr.Ipv4.of_string "10.0.0.2" in
  let payload = "GET / HTTP/1.0\r\n\r\n" in
  let seg = Bytes.create (20 + String.length payload) in
  Tcp.build tcp_header seg 0;
  Bytes.blit_string payload 0 seg 20 (String.length payload);
  Tcp.store_checksum ~src ~dst seg 0 (Bytes.length seg);
  let m = Ldlp_buf.Mbuf.of_bytes pool seg in
  check "verifies" true (Tcp.verify_checksum ~src ~dst m);
  (* Corrupt one payload byte: must fail. *)
  Ldlp_buf.Mbuf.copy_into m ~pos:25 (Bytes.of_string "X") ~src_off:0 ~len:1;
  check "corruption detected" false (Tcp.verify_checksum ~src ~dst m);
  Ldlp_buf.Mbuf.free pool m

let test_tcp_seq_arithmetic () =
  check "lt" true (Tcp.seq_lt 1 2);
  check "wraparound lt" true (Tcp.seq_lt 0xFFFFFFFF 5);
  check "wraparound not lt" false (Tcp.seq_lt 5 0xFFFFFFFF);
  check "leq self" true (Tcp.seq_leq 7 7);
  check "leq across wrap" true (Tcp.seq_leq 0xFFFFFFF0 0x10);
  checki "add wraps" 1 (Tcp.seq_add 0xFFFFFFFF 2);
  checki "add negative wraps" 0xFFFFFFFF (Tcp.seq_add 0 (-1));
  checki "diff" 10 (Tcp.seq_diff 15 5);
  checki "diff wrap" 6 (Tcp.seq_diff 5 0xFFFFFFFF);
  checki "diff wrap negative" (-6) (Tcp.seq_diff 0xFFFFFFFF 5);
  checki "half-space distance is negative" (-0x80000000) (Tcp.seq_diff 0x80000000 0)

(* Pairs within 10^6 of each other, anywhere in the sequence space —
   including straddling 2^32. *)
let prop_tcp_seq_total_order_window =
  QCheck.Test.make ~name:"seq comparison antisymmetric for close values"
    ~count:300
    QCheck.(triple (int_bound 1000000) (int_bound 1000000) (int_bound 0xFFFFFFFF))
    (fun (a, b, base) ->
      let a = Tcp.seq_add base a and b = Tcp.seq_add base b in
      if a = b then Tcp.seq_leq a b && Tcp.seq_leq b a
      else Tcp.seq_lt a b <> Tcp.seq_lt b a && Tcp.seq_add b (Tcp.seq_diff a b) = a)

let test_udp_roundtrip () =
  let src = Addr.Ipv4.of_string "10.0.0.1"
  and dst = Addr.Ipv4.of_string "10.0.0.2" in
  let payload = "dns-query" in
  let dgram = Bytes.create (8 + String.length payload) in
  Bytes.blit_string payload 0 dgram 8 (String.length payload);
  Udp.build
    { Udp.src_port = 53; dst_port = 5353; length = 0 }
    ~src ~dst dgram 0 ~payload_len:(String.length payload);
  (match Udp.parse dgram 0 (Bytes.length dgram) with
  | Error _ -> Alcotest.fail "parse failed"
  | Ok (h, off) ->
    checki "sport" 53 h.Udp.src_port;
    checki "length" 17 h.Udp.length;
    checki "payload offset" 8 off);
  check "checksum verifies" true
    (Udp.verify_checksum ~src ~dst dgram 0 (Bytes.length dgram))

let test_udp_too_short () =
  match Udp.parse (Bytes.create 4) 0 4 with
  | Error (`Too_short _) -> ()
  | _ -> Alcotest.fail "expected Too_short"

(* ---------- fragmentation / reassembly ---------- *)

let frag_header =
  {
    Ipv4.ihl = 5;
    tos = 0;
    total_length = 0;
    ident = 0x4242;
    dont_fragment = false;
    more_fragments = false;
    fragment_offset = 0;
    ttl = 64;
    protocol = Ipv4.proto_udp;
    src = Addr.Ipv4.of_string "10.0.0.1";
    dst = Addr.Ipv4.of_string "10.0.0.2";
  }

let test_fragment_small_passthrough () =
  let payload = Bytes.of_string "tiny" in
  match Reasm.fragment ~mtu:576 ~header:frag_header ~payload with
  | [ (h, p) ] ->
    check "no MF" false h.Ipv4.more_fragments;
    checki "offset 0" 0 h.Ipv4.fragment_offset;
    check "payload intact" true (Bytes.equal p payload)
  | l -> Alcotest.failf "expected 1 fragment, got %d" (List.length l)

let test_fragment_structure () =
  let payload = Bytes.init 3000 (fun i -> Char.chr (i land 0xFF)) in
  let frags = Reasm.fragment ~mtu:576 ~header:frag_header ~payload in
  check "multiple fragments" true (List.length frags > 1);
  (* All but the last carry MF and 8-aligned lengths; offsets chain. *)
  let rec walk expect_off = function
    | [] -> ()
    | [ (h, p) ] ->
      check "last has no MF" false h.Ipv4.more_fragments;
      checki "last offset" expect_off (h.Ipv4.fragment_offset * 8);
      checki "total covered" 3000 ((h.Ipv4.fragment_offset * 8) + Bytes.length p)
    | (h, p) :: rest ->
      check "MF set" true h.Ipv4.more_fragments;
      checki "aligned" 0 (Bytes.length p mod 8);
      checki "offset chain" expect_off (h.Ipv4.fragment_offset * 8);
      walk (expect_off + Bytes.length p) rest
  in
  walk 0 frags

let test_fragment_df_raises () =
  check "DF blocks fragmentation" true
    (try
       ignore
         (Reasm.fragment ~mtu:100
            ~header:{ frag_header with Ipv4.dont_fragment = true }
            ~payload:(Bytes.create 500));
       false
     with Invalid_argument _ -> true)

let test_reassembly_in_order_and_reversed () =
  let payload = Bytes.init 2500 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let frags = Reasm.fragment ~mtu:576 ~header:frag_header ~payload in
  let run frags =
    let r = Reasm.create () in
    List.fold_left
      (fun acc (h, p) ->
        match Reasm.input r ~now:0.0 h p with
        | Reasm.Complete (h, out) -> Some (h, out)
        | Reasm.Pending -> acc
        | Reasm.Rejected why -> Alcotest.failf "rejected: %s" why)
      None frags
  in
  (match run frags with
  | Some (h, out) ->
    check "payload restored" true (Bytes.equal out payload);
    checki "length restored" (2500 + 20) h.Ipv4.total_length;
    check "not a fragment" false (Ipv4.is_fragment h)
  | None -> Alcotest.fail "in-order reassembly incomplete");
  match run (List.rev frags) with
  | Some (_, out) -> check "reversed order ok" true (Bytes.equal out payload)
  | None -> Alcotest.fail "reversed reassembly incomplete"

let test_reassembly_overlap_rejected () =
  let r = Reasm.create () in
  let h ~off ~mf =
    { frag_header with Ipv4.fragment_offset = off / 8; more_fragments = mf }
  in
  (match Reasm.input r ~now:0.0 (h ~off:0 ~mf:true) (Bytes.create 16) with
  | Reasm.Pending -> ()
  | _ -> Alcotest.fail "first fragment should pend");
  match Reasm.input r ~now:0.0 (h ~off:8 ~mf:true) (Bytes.create 16) with
  | Reasm.Rejected _ -> checki "reassembly dropped" 0 (Reasm.pending r)
  | _ -> Alcotest.fail "overlap must be rejected"

let test_reassembly_timeout () =
  let r = Reasm.create () in
  let h = { frag_header with Ipv4.more_fragments = true } in
  ignore (Reasm.input r ~now:0.0 h (Bytes.create 16));
  checki "one pending" 1 (Reasm.pending r);
  (* A fragment of another datagram, past the 30 s timeout, expires the
     first. *)
  ignore
    (Reasm.input r ~now:35.0 { h with Ipv4.ident = h.Ipv4.ident + 1 } (Bytes.create 16));
  checki "first gone, second pending" 1 (Reasm.pending r)

let test_reassembly_interleaved_datagrams () =
  let p1 = Bytes.make 1200 'a' and p2 = Bytes.make 1200 'b' in
  let f1 = Reasm.fragment ~mtu:576 ~header:frag_header ~payload:p1 in
  let f2 =
    Reasm.fragment ~mtu:576
      ~header:{ frag_header with Ipv4.ident = 0x4243 }
      ~payload:p2
  in
  let r = Reasm.create () in
  let done1 = ref None and done2 = ref None in
  let feed (h, p) =
    match Reasm.input r ~now:0.0 h p with
    | Reasm.Complete (_, out) ->
      if h.Ipv4.ident = 0x4242 then done1 := Some out else done2 := Some out
    | Reasm.Pending -> ()
    | Reasm.Rejected why -> Alcotest.failf "rejected: %s" why
  in
  (* Interleave the two fragment streams. *)
  List.iter
    (fun (a, b) ->
      feed a;
      feed b)
    (List.combine f1 f2);
  check "datagram 1" true
    (match !done1 with Some out -> Bytes.equal out p1 | None -> false);
  check "datagram 2" true
    (match !done2 with Some out -> Bytes.equal out p2 | None -> false)

(* A final fragment (MF clear) that ends before data already stored
   closes every hole at once; completing would then blit the stored chunk
   past the end of the datagram.  It is rejected, like an overlap. *)
let test_reassembly_short_final_rejected () =
  let r = Reasm.create () in
  let feed off mf =
    Reasm.input r ~now:0.0
      { frag_header with Ipv4.fragment_offset = off; more_fragments = mf }
      (Bytes.make 8 'x')
  in
  check "bytes 0-7 pend" true (feed 0 true = Reasm.Pending);
  check "bytes 32-39 pend" true (feed 4 true = Reasm.Pending);
  match feed 1 false with
  | Reasm.Rejected _ -> checki "reassembly dropped" 0 (Reasm.pending r)
  | _ -> Alcotest.fail "a final fragment ending before stored data must be rejected"

(* Random fragment streams of one datagram, offsets and lengths in a
   small range so that gaps, overlaps, duplicates and early final
   fragments are common.  Feeding them never raises, and every [Complete]
   holds the bytes of each fragment of its reassembly at that fragment's
   offset. *)
let frag_stream_arb =
  let frag =
    QCheck.Gen.(
      let* off = int_bound 5 in
      let* mf = bool in
      let* len = if mf then map (( * ) 8) (int_range 1 2) else int_range 1 16 in
      let+ c = int_bound 255 in
      ( { frag_header with Ipv4.fragment_offset = off; more_fragments = mf },
        Bytes.init len (fun i -> Char.chr ((c + i) land 0xFF)) ))
  in
  QCheck.make
    ~print:(fun l ->
      String.concat " "
        (List.map
           (fun (h, p) ->
             Printf.sprintf "(off %d%s, %d B)" h.Ipv4.fragment_offset
               (if h.Ipv4.more_fragments then " MF" else "")
               (Bytes.length p))
           l))
    QCheck.Gen.(list_size (1 -- 6) frag)

let prop_reassembly_total =
  QCheck.Test.make ~name:"reassembly never raises, completes byte-exact"
    ~count:2000 frag_stream_arb (fun frags ->
      let r = Reasm.create () in
      let stored = ref [] in
      let at_offset out (h, p) =
        let off = h.Ipv4.fragment_offset * 8 and n = Bytes.length p in
        off + n <= Bytes.length out && Bytes.equal (Bytes.sub out off n) p
      in
      List.for_all
        (fun (h, p) ->
          match Reasm.input r ~now:0.0 h p with
          | Reasm.Pending ->
            stored := (h, p) :: !stored;
            true
          | Reasm.Rejected _ ->
            if Reasm.pending r = 0 then stored := [];
            true
          | Reasm.Complete (_, out) ->
            if h.Ipv4.fragment_offset = 0 && not h.Ipv4.more_fragments then
              at_offset out (h, p)
            else begin
              let frags = (h, p) :: !stored in
              stored := [];
              List.for_all (at_offset out) frags
            end)
        frags)

(* ---------- build -> parse roundtrips on random headers ---------- *)

let mac_gen =
  QCheck.Gen.(
    map
      (fun s -> Addr.Mac.of_bytes (Bytes.of_string s) 0)
      (string_size ~gen:char (return 6)))

let ip_gen =
  QCheck.Gen.(
    map
      (fun s -> Addr.Ipv4.of_bytes (Bytes.of_string s) 0)
      (string_size ~gen:char (return 4)))

let eth_gen =
  QCheck.Gen.(
    map3
      (fun dst src ethertype -> { Ethernet.dst; src; ethertype })
      mac_gen mac_gen (int_bound 0xFFFF))

let eth_arb =
  QCheck.make
    ~print:(fun h ->
      Printf.sprintf "%s -> %s type %#x"
        (Addr.Mac.to_string h.Ethernet.src)
        (Addr.Mac.to_string h.Ethernet.dst)
        h.Ethernet.ethertype)
    eth_gen

let prop_ethernet_build_parse =
  QCheck.Test.make ~name:"ethernet build -> parse roundtrip" ~count:300 eth_arb
    (fun h ->
      let b = Bytes.create 14 in
      Ethernet.build h b 0;
      match Ethernet.parse b 0 14 with
      | Error _ -> false
      | Ok (h', off) ->
        off = 14
        && Addr.Mac.equal h.Ethernet.dst h'.Ethernet.dst
        && Addr.Mac.equal h.Ethernet.src h'.Ethernet.src
        && h.Ethernet.ethertype = h'.Ethernet.ethertype)

let ipv4_gen =
  QCheck.Gen.(
    let* tos = int_bound 0xFF in
    let* total_length = int_range 20 40 in
    let* ident = int_bound 0xFFFF in
    let* dont_fragment = bool in
    let* more_fragments = bool in
    let* fragment_offset = int_bound 0x1FFF in
    let* ttl = int_bound 0xFF in
    let* protocol = int_bound 0xFF in
    let* src = ip_gen in
    let+ dst = ip_gen in
    {
      Ipv4.ihl = 5;
      tos;
      total_length;
      ident;
      dont_fragment;
      more_fragments;
      fragment_offset;
      ttl;
      protocol;
      src;
      dst;
    })

let ipv4_arb =
  QCheck.make
    ~print:(fun h ->
      Printf.sprintf "%s -> %s proto %d len %d frag %d%s%s"
        (Addr.Ipv4.to_string h.Ipv4.src)
        (Addr.Ipv4.to_string h.Ipv4.dst)
        h.Ipv4.protocol h.Ipv4.total_length h.Ipv4.fragment_offset
        (if h.Ipv4.dont_fragment then " DF" else "")
        (if h.Ipv4.more_fragments then " MF" else ""))
    ipv4_gen

let prop_ipv4_build_parse =
  QCheck.Test.make ~name:"ipv4 build -> parse roundtrip (checksum verified)"
    ~count:300 ipv4_arb (fun h ->
      let b = Bytes.create 40 in
      Ipv4.build h b 0;
      match Ipv4.parse b 0 40 with
      | Error _ -> false
      | Ok (h', off) -> off = 20 && h' = h)

let tcp_gen =
  QCheck.Gen.(
    let* src_port = int_bound 0xFFFF in
    let* dst_port = int_bound 0xFFFF in
    let* seq = int_bound 0xFFFFFFFF in
    let* ack = int_bound 0xFFFFFFFF in
    let* data_offset = int_range 5 15 in
    let* flags = int_bound 0x3F in
    let* window = int_bound 0xFFFF in
    let+ urgent = int_bound 0xFFFF in
    { Tcp.src_port; dst_port; seq; ack; data_offset; flags; window; urgent })

let tcp_arb =
  QCheck.make
    ~print:(fun h ->
      Printf.sprintf "%d -> %d seq %d ack %d do %d flags %#x" h.Tcp.src_port
        h.Tcp.dst_port h.Tcp.seq h.Tcp.ack h.Tcp.data_offset h.Tcp.flags)
    tcp_gen

let prop_tcp_build_parse =
  QCheck.Test.make ~name:"tcp build -> parse roundtrip" ~count:300 tcp_arb
    (fun h ->
      let b = Bytes.create 64 in
      Tcp.build h b 0;
      match Tcp.parse b 0 64 with
      | Error _ -> false
      | Ok (h', off) -> off = h.Tcp.data_offset * 4 && h' = h)

let prop_udp_build_parse =
  QCheck.Test.make ~name:"udp build -> parse roundtrip (checksum verified)"
    ~count:300
    QCheck.(
      triple (int_bound 0xFFFF) (int_bound 0xFFFF)
        (make QCheck.Gen.(string_size ~gen:char (0 -- 64))))
    (fun (src_port, dst_port, payload) ->
      let src = Addr.Ipv4.of_string "10.0.0.1"
      and dst = Addr.Ipv4.of_string "10.0.0.2" in
      let n = String.length payload in
      let dgram = Bytes.create (8 + n) in
      Bytes.blit_string payload 0 dgram 8 n;
      Udp.build { Udp.src_port; dst_port; length = 0 } ~src ~dst dgram 0
        ~payload_len:n;
      match Udp.parse dgram 0 (Bytes.length dgram) with
      | Error _ -> false
      | Ok (h', off) ->
        off = 8
        && h'.Udp.src_port = src_port
        && h'.Udp.dst_port = dst_port
        && h'.Udp.length = 8 + n
        && Udp.verify_checksum ~src ~dst dgram 0 (Bytes.length dgram))

let prop_fragment_reassemble_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip at any mtu" ~count:200
    QCheck.(pair (int_range 48 1500) (int_range 1 5000))
    (fun (mtu, size) ->
      let payload = Bytes.init size (fun i -> Char.chr ((i * 31) land 0xFF)) in
      let frags = Reasm.fragment ~mtu ~header:frag_header ~payload in
      let r = Reasm.create () in
      let result =
        List.fold_left
          (fun acc (h, p) ->
            match Reasm.input r ~now:0.0 h p with
            | Reasm.Complete (_, out) -> Some out
            | Reasm.Pending -> acc
            | Reasm.Rejected _ -> acc)
          None frags
      in
      match result with Some out -> Bytes.equal out payload | None -> false)

(* ---------- cursor API: byte-for-byte against the record codecs ---------- *)

(* The receive fast path and the transmit builders use the cursor API
   ([*_at] reads, [check_at], [write]); the slow path and the tests use
   the record codecs.  These properties are what licenses mixing them:
   [write] emits exactly the bytes [build] does (the scratch buffer is
   pre-poisoned so an untouched byte can't pass), and every [*_at]
   accessor agrees with the corresponding [parse] field. *)

let prop_ethernet_cursor_equiv =
  QCheck.Test.make ~name:"ethernet cursor write/reads = record build/parse"
    ~count:300 eth_arb (fun h ->
      let b1 = Bytes.create 14 and b2 = Bytes.make 14 '\xAA' in
      Ethernet.build h b1 0;
      Ethernet.write ~dst:h.Ethernet.dst ~src:h.Ethernet.src
        ~ethertype:h.Ethernet.ethertype b2 0;
      Bytes.equal b1 b2
      && Ethernet.ethertype_at b1 0 = h.Ethernet.ethertype
      && Ethernet.dst_equal h.Ethernet.dst b1 0
      && Ethernet.dst_is_broadcast b1 0 = Addr.Mac.is_broadcast h.Ethernet.dst)

let prop_ipv4_cursor_equiv =
  QCheck.Test.make ~name:"ipv4 cursor write/reads = record build/parse"
    ~count:300 ipv4_arb (fun h ->
      let b1 = Bytes.create 20 and b2 = Bytes.make 20 '\xAA' in
      Ipv4.build h b1 0;
      Ipv4.write ~tos:h.Ipv4.tos ~total_length:h.Ipv4.total_length
        ~ident:h.Ipv4.ident ~dont_fragment:h.Ipv4.dont_fragment
        ~more_fragments:h.Ipv4.more_fragments
        ~fragment_offset:h.Ipv4.fragment_offset ~ttl:h.Ipv4.ttl
        ~protocol:h.Ipv4.protocol ~src:h.Ipv4.src ~dst:h.Ipv4.dst b2 0;
      let frag =
        (if h.Ipv4.dont_fragment then 0x4000 else 0)
        lor (if h.Ipv4.more_fragments then 0x2000 else 0)
        lor h.Ipv4.fragment_offset
      in
      Bytes.equal b1 b2
      && Ipv4.check_at b1 0 20 = 20
      && Ipv4.ihl_at b1 0 = 5
      && Ipv4.tos_at b1 0 = h.Ipv4.tos
      && Ipv4.total_length_at b1 0 = h.Ipv4.total_length
      && Ipv4.ident_at b1 0 = h.Ipv4.ident
      && Ipv4.frag_at b1 0 = frag
      && Ipv4.ttl_at b1 0 = h.Ipv4.ttl
      && Ipv4.protocol_at b1 0 = h.Ipv4.protocol
      && Addr.Ipv4.equal (Ipv4.src_at b1 0) h.Ipv4.src
      && Addr.Ipv4.equal (Ipv4.dst_at b1 0) h.Ipv4.dst)

let prop_tcp_cursor_equiv =
  QCheck.Test.make ~name:"tcp cursor write/reads = record build/parse"
    ~count:300 tcp_arb (fun h ->
      let b1 = Bytes.create 20 and b2 = Bytes.make 20 '\xAA' in
      Tcp.build h b1 0;
      Tcp.write ~src_port:h.Tcp.src_port ~dst_port:h.Tcp.dst_port
        ~seq:h.Tcp.seq ~ack:h.Tcp.ack ~data_offset:h.Tcp.data_offset
        ~flags:h.Tcp.flags ~window:h.Tcp.window ~urgent:h.Tcp.urgent b2 0;
      Bytes.equal b1 b2
      && Tcp.check_at b1 0 64 = h.Tcp.data_offset * 4
      && Tcp.src_port_at b1 0 = h.Tcp.src_port
      && Tcp.dst_port_at b1 0 = h.Tcp.dst_port
      && Tcp.seq_at b1 0 = h.Tcp.seq
      && Tcp.ack_at b1 0 = h.Tcp.ack
      && Tcp.data_offset_at b1 0 = h.Tcp.data_offset
      && Tcp.flags_at b1 0 = h.Tcp.flags
      && Tcp.window_at b1 0 = h.Tcp.window
      && Tcp.urgent_at b1 0 = h.Tcp.urgent)

(* ---------- cursor validators against the record parsers on bad input ---------- *)

(* The Host fast path trusts [check_at > 0].  A mutation takes a header
   [build] made, places it at an offset with random bytes after it, may
   overwrite total_length (IPv4) or data_offset (TCP) with a lie, flips
   up to three bits of the first 20 bytes and offers a possibly
   truncated length.  On every mutant [check_at] must return -1 exactly
   when [parse] returns [Error], the header length when both accept, and
   neither may raise. *)
type mutation = {
  m_off : int;
  m_len : int;
  m_lie : int option;
  m_flips : (int * int) list;  (* (byte, bit) *)
  m_tail : string;  (* the 64 bytes after the 20-byte header *)
}

let mutation_arb =
  QCheck.make
    ~print:(fun m ->
      Printf.sprintf "off %d len %d lie %s flips [%s]" m.m_off m.m_len
        (match m.m_lie with Some v -> string_of_int v | None -> "-")
        (String.concat "; "
           (List.map (fun (i, b) -> Printf.sprintf "%d.%d" i b) m.m_flips)))
    QCheck.Gen.(
      let* m_off = int_bound 7 in
      let* m_len = frequency [ (2, int_bound 64); (1, return 64) ] in
      let* m_lie =
        opt (frequency [ (1, int_bound 0xFFFF); (3, int_bound 64) ])
      in
      let* m_flips = list_size (0 -- 3) (pair (int_bound 19) (int_bound 7)) in
      let+ m_tail = string_size (return 64) in
      { m_off; m_len; m_lie; m_flips; m_tail })

let mutant ~build ~lie m =
  let b = Bytes.make (m.m_off + 84) '\x00' in
  build b m.m_off;
  Bytes.blit_string m.m_tail 0 b (m.m_off + 20) 64;
  Option.iter (lie b m.m_off) m.m_lie;
  List.iter
    (fun (i, bit) ->
      let j = m.m_off + i in
      Bytes.set_uint8 b j (Bytes.get_uint8 b j lxor (1 lsl bit)))
    m.m_flips;
  b

let agrees check parse off =
  match parse with Error _ -> check = -1 | Ok (_, payload) -> check = payload - off

let prop_ipv4_check_at_mutants =
  QCheck.Test.make ~name:"ipv4 check_at = parse on mutated headers"
    ~count:2000 (QCheck.pair ipv4_arb mutation_arb) (fun (h, m) ->
      let b =
        mutant ~build:(Ipv4.build h)
          ~lie:(fun b off v -> Bytes.set_uint16_be b (off + 2) v)
          m
      in
      agrees (Ipv4.check_at b m.m_off m.m_len) (Ipv4.parse b m.m_off m.m_len) m.m_off)

let prop_tcp_check_at_mutants =
  QCheck.Test.make ~name:"tcp check_at = parse on mutated headers"
    ~count:2000 (QCheck.pair tcp_arb mutation_arb) (fun (h, m) ->
      let b =
        mutant ~build:(Tcp.build h)
          ~lie:(fun b off v ->
            let j = off + 12 in
            Bytes.set_uint8 b j (((v land 0xF) lsl 4) lor (Bytes.get_uint8 b j land 0xF)))
          m
      in
      agrees (Tcp.check_at b m.m_off m.m_len) (Tcp.parse b m.m_off m.m_len) m.m_off)

(* ---------- header fields against a byte-at-a-time reference ---------- *)

(* The codecs read and write a 16-bit field as one load or store, and a
   single byte through [Bytes.get_uint8]/[set_uint8].  The reference goes
   a byte at a time through [Char], as the codecs once did: a 16-bit
   field is its value's low 16 bits, high byte first. *)
let ref_get8 b i = Char.code (Bytes.get b i)

let ref_set8 b i v = Bytes.set b i (Char.chr (v land 0xFF))

let ref_get16 b i = (ref_get8 b i lsl 8) lor ref_get8 b (i + 1)

let ref_set16 b i v =
  ref_set8 b i (v lsr 8);
  ref_set8 b (i + 1) v

let ref_get32 b i = (ref_get16 b i lsl 16) lor ref_get16 b (i + 2)

let ref_set32 b i v =
  ref_set16 b i (v lsr 16);
  ref_set16 b (i + 2) v

let ref_tcp_write ~src_port ~dst_port ~seq ~ack ~data_offset ~flags ~window
    ~urgent b off =
  ref_set16 b off src_port;
  ref_set16 b (off + 2) dst_port;
  ref_set32 b (off + 4) seq;
  ref_set32 b (off + 8) ack;
  ref_set8 b (off + 12) ((data_offset land 0xF) lsl 4);
  ref_set8 b (off + 13) (flags land 0x3F);
  ref_set16 b (off + 14) window;
  ref_set16 b (off + 16) 0;
  ref_set16 b (off + 18) urgent

let ref_ipv4_write ~tos ~total_length ~ident ~dont_fragment ~more_fragments
    ~fragment_offset ~ttl ~protocol ~src ~dst b off =
  let addr a = Int32.to_int (Addr.Ipv4.to_int32 a) in
  ref_set8 b off 0x45;
  ref_set8 b (off + 1) tos;
  ref_set16 b (off + 2) total_length;
  ref_set16 b (off + 4) ident;
  ref_set16 b (off + 6)
    ((if dont_fragment then 0x4000 else 0)
    lor (if more_fragments then 0x2000 else 0)
    lor (fragment_offset land 0x1FFF));
  ref_set8 b (off + 8) ttl;
  ref_set8 b (off + 9) protocol;
  ref_set16 b (off + 10) 0;
  ref_set32 b (off + 12) (addr src);
  ref_set32 b (off + 16) (addr dst);
  let rec fold s = if s > 0xFFFF then fold ((s land 0xFFFF) + (s lsr 16)) else s in
  ref_set16 b (off + 10) (lnot (fold (reference_partial b off 20)))

(* Raises [Invalid_argument] on an ethertype outside 16 bits, as
   [Char.chr] does on a high byte above 0xFF. *)
let ref_ethernet_write ~dst ~src ~ethertype b off =
  Addr.Mac.write dst b off;
  Addr.Mac.write src b (off + 6);
  Bytes.set b (off + 12) (Char.chr (ethertype lsr 8));
  Bytes.set b (off + 13) (Char.chr (ethertype land 0xFF))

type field_case = {
  off : int;
  fill : string;  (* the buffer's bytes before a write *)
  v : int array;  (* the 15 field values, in [prop_header_fields]'s order *)
  df : bool;
  mf : bool;
  macs : Addr.Mac.t * Addr.Mac.t;
  ips : Addr.Ipv4.t * Addr.Ipv4.t;
}

(* Field values past 16 bits and below zero, and headers at offsets 0-3
   of a buffer of random bytes: a writer that keeps a high bit, swaps a
   field's bytes or touches a byte outside its header fails, and so does
   a reader that does any of that. *)
let field_case_arb =
  let open QCheck.Gen in
  let field =
    frequency
      [
        (4, int_bound 0xFFFF);
        (1, int_range 0x1_0000 0xFFFF_FFFF);
        (1, int_range (-0xFFFF_FFFF) (-1));
        (1, int);
      ]
  in
  let gen =
    let* off = int_range 0 3 in
    let* fill = string_size ~gen:char (return (off + 24)) in
    let* v = array_size (return 15) field in
    let* df = bool in
    let* mf = bool in
    let* macs = pair mac_gen mac_gen in
    let+ ips = pair ip_gen ip_gen in
    { off; fill; v; df; mf; macs; ips }
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "off=%d df=%b mf=%b fields=[%s] fill=%S" c.off c.df c.mf
        (String.concat "; " (Array.to_list (Array.map string_of_int c.v)))
        c.fill)
    gen

let prop_header_fields =
  QCheck.Test.make ~name:"header writers and readers = byte-wise reference"
    ~count:500 field_case_arb (fun c ->
      let off = c.off and v = c.v in
      (* The bytes [write] leaves in a copy of the fill, or [None] when it
         raises [Invalid_argument]. *)
      let written write =
        let b = Bytes.of_string c.fill in
        match write b with () -> Some b | exception Invalid_argument _ -> None
      in
      let agree codec reference =
        Option.equal Bytes.equal (written codec) (written reference)
      in
      let tcp write b =
        write ~src_port:v.(0) ~dst_port:v.(1) ~seq:v.(2) ~ack:v.(3)
          ~data_offset:v.(4) ~flags:v.(5) ~window:v.(6) ~urgent:v.(7) b off
      in
      let ipv4 write b =
        write ~tos:v.(8) ~total_length:v.(9) ~ident:v.(10) ~dont_fragment:c.df
          ~more_fragments:c.mf ~fragment_offset:v.(11) ~ttl:v.(12)
          ~protocol:v.(13) ~src:(fst c.ips) ~dst:(snd c.ips) b off
      in
      let ethernet write b =
        write ~dst:(fst c.macs) ~src:(snd c.macs) ~ethertype:v.(14) b off
      in
      let b = Bytes.of_string c.fill in
      let addr a = Int32.to_int (Addr.Ipv4.to_int32 a) land 0xFFFF_FFFF in
      agree (tcp Tcp.write) (tcp ref_tcp_write)
      && agree (ipv4 Ipv4.write) (ipv4 ref_ipv4_write)
      && agree (ethernet Ethernet.write) (ethernet ref_ethernet_write)
      && Tcp.src_port_at b off = ref_get16 b off
      && Tcp.dst_port_at b off = ref_get16 b (off + 2)
      && Tcp.seq_at b off = ref_get32 b (off + 4)
      && Tcp.ack_at b off = ref_get32 b (off + 8)
      && Tcp.data_offset_at b off = ref_get8 b (off + 12) lsr 4
      && Tcp.flags_at b off = ref_get8 b (off + 13) land 0x3F
      && Tcp.window_at b off = ref_get16 b (off + 14)
      && Tcp.urgent_at b off = ref_get16 b (off + 18)
      && Ipv4.ihl_at b off = ref_get8 b off land 0xF
      && Ipv4.tos_at b off = ref_get8 b (off + 1)
      && Ipv4.total_length_at b off = ref_get16 b (off + 2)
      && Ipv4.ident_at b off = ref_get16 b (off + 4)
      && Ipv4.frag_at b off = ref_get16 b (off + 6)
      && Ipv4.ttl_at b off = ref_get8 b (off + 8)
      && Ipv4.protocol_at b off = ref_get8 b (off + 9)
      && addr (Ipv4.src_at b off) = ref_get32 b (off + 12)
      && addr (Ipv4.dst_at b off) = ref_get32 b (off + 16)
      && Ethernet.ethertype_at b off = ref_get16 b (off + 12))

let suite =
  [
    Alcotest.test_case "cksum rfc1071 example" `Quick test_cksum_rfc1071_example;
    Alcotest.test_case "cksum empty/odd" `Quick test_cksum_empty_and_odd;
    Alcotest.test_case "cksum self-verifies" `Quick test_cksum_verifies_to_zero;
    QCheck_alcotest.to_alcotest prop_simple_eq_unrolled;
    QCheck_alcotest.to_alcotest prop_chain_eq_flat;
    QCheck_alcotest.to_alcotest prop_chain_eq_flat_with_splits;
    QCheck_alcotest.to_alcotest prop_partial_eq_reference;
    QCheck_alcotest.to_alcotest prop_chain_and_verify_eq_reference;
    Alcotest.test_case "cksum footprints" `Quick test_cksum_footprints;
    Alcotest.test_case "chain checksum allocates nothing" `Quick
      test_chain_checksum_zero_alloc;
    Alcotest.test_case "address filters allocate nothing" `Quick
      test_address_filters_zero_alloc;
    Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
    Alcotest.test_case "ipv4 addr roundtrip" `Quick test_ipv4_roundtrip;
    Alcotest.test_case "bad addresses" `Quick test_bad_addresses;
    Alcotest.test_case "ethernet roundtrip" `Quick test_ethernet_roundtrip;
    Alcotest.test_case "ethernet too short" `Quick test_ethernet_too_short;
    Alcotest.test_case "ethernet strip/encap" `Quick test_ethernet_strip_encapsulate;
    Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip_hdr;
    Alcotest.test_case "ipv4 bad checksum" `Quick test_ipv4_bad_checksum;
    Alcotest.test_case "ipv4 bad version" `Quick test_ipv4_bad_version;
    Alcotest.test_case "ipv4 strip/encap" `Quick test_ipv4_strip_encapsulate;
    Alcotest.test_case "ipv4 strips padding" `Quick test_ipv4_strip_drops_padding;
    Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "tcp checksum" `Quick test_tcp_checksum_roundtrip;
    Alcotest.test_case "tcp seq arithmetic" `Quick test_tcp_seq_arithmetic;
    QCheck_alcotest.to_alcotest prop_tcp_seq_total_order_window;
    QCheck_alcotest.to_alcotest prop_ethernet_build_parse;
    QCheck_alcotest.to_alcotest prop_ipv4_build_parse;
    QCheck_alcotest.to_alcotest prop_tcp_build_parse;
    QCheck_alcotest.to_alcotest prop_ethernet_cursor_equiv;
    QCheck_alcotest.to_alcotest prop_ipv4_cursor_equiv;
    QCheck_alcotest.to_alcotest prop_tcp_cursor_equiv;
    QCheck_alcotest.to_alcotest prop_ipv4_check_at_mutants;
    QCheck_alcotest.to_alcotest prop_tcp_check_at_mutants;
    QCheck_alcotest.to_alcotest prop_header_fields;
    QCheck_alcotest.to_alcotest prop_udp_build_parse;
    Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "udp too short" `Quick test_udp_too_short;
    Alcotest.test_case "fragment passthrough" `Quick test_fragment_small_passthrough;
    Alcotest.test_case "fragment structure" `Quick test_fragment_structure;
    Alcotest.test_case "fragment DF" `Quick test_fragment_df_raises;
    Alcotest.test_case "reassembly orders" `Quick test_reassembly_in_order_and_reversed;
    Alcotest.test_case "reassembly overlap" `Quick test_reassembly_overlap_rejected;
    Alcotest.test_case "reassembly timeout" `Quick test_reassembly_timeout;
    Alcotest.test_case "reassembly interleaved" `Quick test_reassembly_interleaved_datagrams;
    QCheck_alcotest.to_alcotest prop_fragment_reassemble_roundtrip;
    Alcotest.test_case "reassembly short final fragment" `Quick
      test_reassembly_short_final_rejected;
    QCheck_alcotest.to_alcotest prop_reassembly_total;
  ]
