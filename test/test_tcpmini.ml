(* Tests for the miniature TCP/IP host: socket buffers, the PCB table and
   its single-entry cache, the TCP input state machine (handshake, header
   prediction, delayed ACK, FIN, RST), and the assembled stack under both
   scheduling disciplines. *)

open Ldlp_tcpmini
module Tcp = Ldlp_packet.Tcp

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ---------- Sockbuf ---------- *)

let test_sockbuf_basic () =
  let sb = Sockbuf.create ~hiwat:10 () in
  checki "empty" 0 (Sockbuf.length sb);
  checki "space" 10 (Sockbuf.space sb);
  checki "append accepts" 5 (Sockbuf.append sb (Bytes.of_string "hello"));
  checki "length" 5 (Sockbuf.length sb);
  checks "read" "hel" (Bytes.to_string (Sockbuf.read sb 3));
  checki "length after read" 2 (Sockbuf.length sb);
  checks "read rest" "lo" (Bytes.to_string (Sockbuf.read_all sb))

let test_sockbuf_hiwat () =
  let sb = Sockbuf.create ~hiwat:8 () in
  checki "partial accept" 8 (Sockbuf.append sb (Bytes.of_string "0123456789"));
  checki "full" 0 (Sockbuf.space sb);
  checki "rejects when full" 0 (Sockbuf.append sb (Bytes.of_string "x"));
  ignore (Sockbuf.read sb 4);
  checki "space recovered" 4 (Sockbuf.space sb)

let test_sockbuf_wakeups () =
  let sb = Sockbuf.create () in
  ignore (Sockbuf.append sb (Bytes.of_string "a"));
  ignore (Sockbuf.append sb (Bytes.of_string "b"));
  checki "one wakeup while non-empty" 1 (Sockbuf.wakeups sb);
  ignore (Sockbuf.read_all sb);
  ignore (Sockbuf.append sb (Bytes.of_string "c"));
  checki "wakeup after drain" 2 (Sockbuf.wakeups sb)

(* Random interleavings of appends (from bytes, and from multi-segment
   mbuf chains at an offset), partial reads and empty reads, checked
   after every step against a [Buffer] model: bytes come out in order,
   an append accepts exactly what fits under [hiwat] (0 when full),
   [space] and [length] agree, and [wakeups] counts the appends that
   found the buffer empty.  Small [hiwat]s fill the buffer; reads
   between appends make the ring wrap and the appends grow it. *)
type sockbuf_op = Append of string | Append_chain of int * string list | Read of int

let sockbuf_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun s -> Append s) (string_size (0 -- 90)));
        ( 3,
          map2
            (fun pre parts -> Append_chain (pre, parts))
            (0 -- 70)
            (list_size (1 -- 4) (string_size (0 -- 150))) );
        (3, map (fun n -> Read n) (0 -- 200));
      ])

let show_sockbuf_op = function
  | Append s -> Printf.sprintf "Append %d" (String.length s)
  | Append_chain (pre, parts) ->
    Printf.sprintf "Append_chain (%d, [%s])" pre
      (String.concat "; " (List.map (fun p -> string_of_int (String.length p)) parts))
  | Read n -> Printf.sprintf "Read %d" n

let prop_sockbuf_fifo =
  QCheck.Test.make ~name:"sockbuf preserves byte order" ~count:300
    (QCheck.make
       ~print:(fun (hiwat, ops) ->
         Printf.sprintf "hiwat %d: %s" hiwat
           (String.concat ", " (List.map show_sockbuf_op ops)))
       QCheck.Gen.(pair (1 -- 600) (list_size (0 -- 40) sockbuf_op_gen)))
    (fun (hiwat, ops) ->
      let pool = Ldlp_buf.Pool.create () in
      let sb = Sockbuf.create ~hiwat () in
      let model = Buffer.create 64 and wakeups = ref 0 in
      let push data accepted =
        let fits = min (String.length data) (hiwat - Buffer.length model) in
        if fits > 0 && Buffer.length model = 0 then incr wakeups;
        Buffer.add_string model (String.sub data 0 fits);
        accepted = fits
      in
      let step = function
        | Append data -> push data (Sockbuf.append sb (Bytes.of_string data))
        | Append_chain (pre, parts) ->
          (* One chain per part, concatenated; the payload starts [pre]
             bytes in, as a segment's does after its headers. *)
          let chain =
            List.fold_left
              (fun m part -> Ldlp_buf.Mbuf.concat m (Ldlp_buf.Mbuf.of_string pool part))
              (Ldlp_buf.Mbuf.of_string pool (String.make pre 'h'))
              parts
          in
          let data = String.concat "" parts in
          let accepted =
            Sockbuf.append_mbuf sb chain ~pos:pre ~len:(String.length data)
          in
          Ldlp_buf.Mbuf.free pool chain;
          push data accepted
        | Read n ->
          let got = Bytes.to_string (Sockbuf.read sb n) in
          let want = Buffer.sub model 0 (min n (Buffer.length model)) in
          let rest =
            Buffer.sub model (String.length want)
              (Buffer.length model - String.length want)
          in
          Buffer.clear model;
          Buffer.add_string model rest;
          got = want
      in
      List.for_all
        (fun op ->
          step op
          && Sockbuf.length sb = Buffer.length model
          && Sockbuf.space sb = hiwat - Buffer.length model
          && Sockbuf.wakeups sb = !wakeups)
        ops
      && Bytes.to_string (Sockbuf.read_all sb) = Buffer.contents model
      && Sockbuf.length sb = 0)

(* Once the ring has grown, a connection in steady state allocates
   nothing to fill it from an mbuf: the words a fill-and-read cycle costs
   are those of the bytes [read] hands out.  100 bytes stay resident, so
   the ring (grown to 256) wraps at a moving phase. *)
let test_sockbuf_ring_fill_zero_alloc () =
  let pool = Ldlp_buf.Pool.create () in
  let m = Ldlp_buf.Mbuf.of_string pool (String.make 84 'p') in
  let sb = Sockbuf.create () in
  ignore (Sockbuf.append sb (Bytes.make 100 'r'));
  let words f =
    f ();
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let cycle () =
    ignore (Sockbuf.append_mbuf sb m ~pos:20 ~len:64);
    ignore (Sys.opaque_identity (Sockbuf.read sb 64))
  in
  let handout () = ignore (Sys.opaque_identity (Bytes.create 64)) in
  let dw = words cycle and base = words handout in
  checki "resident bytes" 100 (Sockbuf.length sb);
  if dw > base +. 16. then
    Alcotest.failf
      "10000 fill/read cycles allocated %.0f minor words (the reads' bytes: %.0f)" dw base

(* ---------- Pcb ---------- *)

let ipa = Ldlp_packet.Addr.Ipv4.of_string

let test_pcb_listen_and_lookup () =
  let t = Pcb.create_table () in
  let l = Pcb.listen t ~port:80 () in
  check "listener state" true (l.Pcb.state = Pcb.Listen);
  (match Pcb.lookup t ~local_port:80 ~remote:(ipa "10.0.0.9", 1234) with
  | Some pcb -> check "falls back to listener" true (pcb == l)
  | None -> Alcotest.fail "lookup");
  check "no listener on other port" true
    (Pcb.lookup t ~local_port:81 ~remote:(ipa "10.0.0.9", 1234) = None)

let test_pcb_double_listen_rejected () =
  let t = Pcb.create_table () in
  ignore (Pcb.listen t ~port:80 ());
  check "double bind raises" true
    (try
       ignore (Pcb.listen t ~port:80 ());
       false
     with Invalid_argument _ -> true)

let test_pcb_cache_hits () =
  let t = Pcb.create_table () in
  let l = Pcb.listen t ~port:80 () in
  let remote = (ipa "10.0.0.9", 1234) in
  let conn = Pcb.insert_connection t ~listener:l ~remote in
  (* First lookup after insert hits the cache (insert primes it). *)
  (match Pcb.lookup t ~local_port:80 ~remote with
  | Some pcb -> check "found connection" true (pcb == conn)
  | None -> Alcotest.fail "lookup");
  let s = Pcb.stats t in
  checki "cache hit recorded" 1 s.Pcb.cache_hits;
  (* A different remote misses the cache but hits the listener. *)
  ignore (Pcb.lookup t ~local_port:80 ~remote:(ipa "10.0.0.8", 99));
  let s = Pcb.stats t in
  checki "still one cache hit" 1 s.Pcb.cache_hits;
  checki "two lookups" 2 s.Pcb.lookups

let test_pcb_drop () =
  let t = Pcb.create_table () in
  let l = Pcb.listen t ~port:80 () in
  let remote = (ipa "10.0.0.9", 1234) in
  let conn = Pcb.insert_connection t ~listener:l ~remote in
  checki "one connection" 1 (Pcb.connections t);
  Pcb.drop t conn;
  checki "removed" 0 (Pcb.connections t);
  check "closed" true (conn.Pcb.state = Pcb.Closed);
  (* Lookup now falls back to the listener, not a stale cache entry. *)
  match Pcb.lookup t ~local_port:80 ~remote with
  | Some pcb -> check "listener again" true (pcb == l)
  | None -> Alcotest.fail "lookup after drop"

(* ---------- Host / tcp_input end-to-end ---------- *)

let client_ip = ipa "10.1.0.2"

let make_host () =
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Host.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
      ~ip:(ipa "10.1.0.1") ()
  in
  (pool, host)

(* Run a list of client frames through the host's stack; returns the
   host's transmissions, parsed. *)
let run_frames ?(discipline = Ldlp_core.Engine.Conventional) host frames =
  let tx = ref [] in
  let sched =
    Ldlp_core.Engine.rx_chain ~discipline ~layers:(Host.layers host)
      ~down:(fun m ->
        match Host.parse_tx host m.Ldlp_core.Msg.payload with
        | Some r -> tx := r :: !tx
        | None -> Alcotest.fail "host transmitted an unparseable frame")
      ()
  in
  List.iter
    (fun f ->
      Ldlp_core.Engine.inject sched ~node:0
        (Ldlp_core.Msg.make ~size:(Ldlp_buf.Mbuf.length f) (Host.wrap host f)))
    frames;
  Ldlp_core.Engine.run sched;
  List.rev !tx

let handshake host ~src_port =
  let syn =
    Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80 ~seq:100
      ~ack:0 ~flags:Tcp.flag_syn ()
  in
  match run_frames host [ syn ] with
  | [ (h, _) ] ->
    check "syn-ack" true (Tcp.has_flag h Tcp.flag_syn && Tcp.has_flag h Tcp.flag_ack);
    check "acks isn+1" true (h.Tcp.ack = 101);
    (* Complete with the handshake ACK. *)
    let ack =
      Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80
        ~seq:101
        ~ack:(Tcp.seq_add h.Tcp.seq 1)
        ~flags:Tcp.flag_ack ()
    in
    checki "no reply to bare ack" 0 (List.length (run_frames host [ ack ]));
    h.Tcp.seq
  | l -> Alcotest.failf "expected 1 syn-ack, got %d replies" (List.length l)

let data_frame host ~src_port ~seq payload =
  Host.client_frame host ~src_ip:client_ip ~src_port ~dst_port:80 ~seq ~ack:0
    ~flags:(Tcp.flag_ack lor Tcp.flag_psh)
    ~payload:(Bytes.of_string payload) ()

let test_handshake () =
  let _, host = make_host () in
  let _listener = Host.listen host ~port:80 in
  ignore (handshake host ~src_port:4000);
  checki "one connection" 1 (Pcb.connections (Host.table host))

let test_data_delivery_and_delayed_ack () =
  Tcp_input.reset_stats ();
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:4000);
  let seg1 = data_frame host ~src_port:4000 ~seq:101 "hello " in
  let seg2 = data_frame host ~src_port:4000 ~seq:107 "world!" in
  let replies = run_frames host [ seg1; seg2 ] in
  (* 4.4BSD acks every second data segment: exactly one ACK for two. *)
  checki "one delayed ack for two segments" 1 (List.length replies);
  (match replies with
  | [ (h, _) ] ->
    check "cumulative" true (h.Tcp.ack = 101 + 12)
  | _ -> ());
  (* Data is in the socket buffer of the connection. *)
  (match
     Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 4000)
   with
  | Some pcb ->
    checks "payload" "hello world!" (Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf))
  | None -> Alcotest.fail "no pcb");
  let s = Tcp_input.stats () in
  checki "both took the fast path" 2 s.Tcp_input.fastpath_hits

let test_out_of_order_dup_ack () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:4001);
  (* Skip ahead: segment at seq 200 when 101 is expected. *)
  let ooo = data_frame host ~src_port:4001 ~seq:200 "xxxx" in
  (match run_frames host [ ooo ] with
  | [ (h, _) ] -> check "dup-ack at rcv_nxt" true (h.Tcp.ack = 101)
  | l -> Alcotest.failf "expected dup-ack, got %d" (List.length l));
  (* Nothing delivered. *)
  match
    Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 4001)
  with
  | Some pcb -> checki "no data" 0 (Sockbuf.length pcb.Pcb.sockbuf)
  | None -> Alcotest.fail "no pcb"

let test_fin_moves_to_close_wait () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:4002);
  let fin =
    Host.client_frame host ~src_ip:client_ip ~src_port:4002 ~dst_port:80
      ~seq:101 ~ack:0 ~flags:(Tcp.flag_fin lor Tcp.flag_ack) ()
  in
  (match run_frames host [ fin ] with
  | [ (h, _) ] -> check "fin acked" true (h.Tcp.ack = 102)
  | l -> Alcotest.failf "expected fin-ack, got %d" (List.length l));
  match
    Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 4002)
  with
  | Some pcb -> check "close-wait" true (pcb.Pcb.state = Pcb.Close_wait)
  | None -> Alcotest.fail "no pcb"

let test_rst_tears_down () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:4003);
  checki "connected" 1 (Pcb.connections (Host.table host));
  let rst =
    Host.client_frame host ~src_ip:client_ip ~src_port:4003 ~dst_port:80
      ~seq:101 ~ack:0 ~flags:Tcp.flag_rst ()
  in
  checki "no reply to rst" 0 (List.length (run_frames host [ rst ]));
  checki "torn down" 0 (Pcb.connections (Host.table host))

let test_no_listener_rst () =
  let _, host = make_host () in
  let seg = data_frame host ~src_port:4004 ~seq:1 "to-nowhere" in
  match run_frames host [ seg ] with
  | [ (h, _) ] -> check "rst" true (Tcp.has_flag h Tcp.flag_rst)
  | l -> Alcotest.failf "expected RST, got %d replies" (List.length l)

let test_corrupt_checksum_dropped () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:4005);
  let seg = data_frame host ~src_port:4005 ~seq:101 "valid-data" in
  (* Corrupt a payload byte after checksumming. *)
  let len = Ldlp_buf.Mbuf.length seg in
  Ldlp_buf.Mbuf.copy_into seg ~pos:(len - 1) (Bytes.of_string "X") ~src_off:0 ~len:1;
  checki "silently dropped" 0 (List.length (run_frames host [ seg ]));
  match
    Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 4005)
  with
  | Some pcb -> checki "nothing delivered" 0 (Sockbuf.length pcb.Pcb.sockbuf)
  | None -> Alcotest.fail "no pcb"

let test_window_respected () =
  let pool, host = make_host () in
  ignore pool;
  ignore (Pcb.listen (Host.table host) ~port:81 ~hiwat:8 ());
  let syn =
    Host.client_frame host ~src_ip:client_ip ~src_port:4006 ~dst_port:81
      ~seq:100 ~ack:0 ~flags:Tcp.flag_syn ()
  in
  (match run_frames host [ syn ] with
  | [ (h, _) ] ->
    checki "advertised window = hiwat" 8 h.Tcp.window;
    let ack =
      Host.client_frame host ~src_ip:client_ip ~src_port:4006 ~dst_port:81
        ~seq:101 ~ack:(Tcp.seq_add h.Tcp.seq 1) ~flags:Tcp.flag_ack ()
    in
    ignore (run_frames host [ ack ])
  | _ -> Alcotest.fail "no syn-ack");
  (* 12 bytes into an 8-byte window: slow path, partial accept. *)
  let seg =
    Host.client_frame host ~src_ip:client_ip ~src_port:4006 ~dst_port:81
      ~seq:101 ~ack:0 ~flags:Tcp.flag_ack
      ~payload:(Bytes.of_string "0123456789ab") ()
  in
  (match run_frames host [ seg ] with
  | [ (h, _) ] ->
    check "acks only accepted bytes" true (h.Tcp.ack = 109);
    checki "window closed" 0 h.Tcp.window
  | l -> Alcotest.failf "expected ack, got %d" (List.length l));
  match
    Pcb.lookup (Host.table host) ~local_port:81 ~remote:(client_ip, 4006)
  with
  | Some pcb ->
    checks "prefix kept" "01234567" (Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf))
  | None -> Alcotest.fail "no pcb"

(* ---------- TCP options ---------- *)

(* A client frame whose TCP header carries [options] (a multiple of four
   bytes), built with the record encoders. *)
let frame_with_options pool host ~src_port ~seq ~flags ~options payload =
  let open Ldlp_packet in
  let hdr = Tcp.header_bytes + String.length options in
  let seg = Bytes.create (hdr + String.length payload) in
  Tcp.write ~src_port ~dst_port:80 ~seq ~ack:0 ~data_offset:(hdr / 4) ~flags
    ~window:8760 ~urgent:0 seg 0;
  Bytes.blit_string options 0 seg Tcp.header_bytes (String.length options);
  Bytes.blit_string payload 0 seg hdr (String.length payload);
  Tcp.store_checksum ~src:client_ip ~dst:(Host.ip host) seg 0 (Bytes.length seg);
  let m =
    Ipv4.encapsulate (Ldlp_buf.Mbuf.of_bytes pool seg)
      {
        Ipv4.ihl = 5;
        tos = 0;
        total_length = 0;
        ident = 0;
        dont_fragment = true;
        more_fragments = false;
        fragment_offset = 0;
        ttl = 64;
        protocol = Ipv4.proto_tcp;
        src = client_ip;
        dst = Host.ip host;
      }
  in
  Ethernet.encapsulate m
    {
      Ethernet.dst = Addr.Mac.of_string "02:00:00:00:00:01";
      src = Addr.Mac.of_string "02:00:00:00:00:aa";
      ethertype = Ethernet.ethertype_ipv4;
    }

let mss_1460 = "\002\004\005\180"

(* NOP, NOP, then timestamps (kind 8, length 10): 12 bytes. *)
let timestamps = "\001\001\008\010\000\000\000\042\000\000\000\007"

let test_syn_with_mss_answered () =
  let pool, host = make_host () in
  ignore (Host.listen host ~port:80);
  Tcp_input.reset_stats ();
  let syn =
    frame_with_options pool host ~src_port:4100 ~seq:100 ~flags:Tcp.flag_syn
      ~options:mss_1460 ""
  in
  (match run_frames host [ syn ] with
  | [ (h, _) ] ->
    check "syn-ack" true (Tcp.has_flag h Tcp.flag_syn && Tcp.has_flag h Tcp.flag_ack);
    checki "acks isn+1" 101 h.Tcp.ack
  | l -> Alcotest.failf "expected 1 syn-ack, got %d replies" (List.length l));
  checki "not dropped" 0 (Tcp_input.stats ()).Tcp_input.drops;
  checki "connection created" 1 (Pcb.connections (Host.table host))

let test_options_skipped_on_data () =
  let pool, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:4101);
  let seg =
    frame_with_options pool host ~src_port:4101 ~seq:101
      ~flags:(Tcp.flag_ack lor Tcp.flag_psh) ~options:timestamps "payload"
  in
  let seg2 = data_frame host ~src_port:4101 ~seq:108 "!" in
  (match run_frames host [ seg; seg2 ] with
  | [ (h, _) ] -> checki "acks the payload bytes only" (101 + 8) h.Tcp.ack
  | l -> Alcotest.failf "expected one ack, got %d" (List.length l));
  checki "delivered bytes" 8 (Host.counters host).Host.delivered_bytes;
  match Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 4101) with
  | Some pcb ->
    checks "only the payload delivered" "payload!"
      (Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf))
  | None -> Alcotest.fail "no pcb"

(* ---------- the frame builder against the record encoders ---------- *)

type frame_case = {
  f_src : int;
  f_dst : int;
  f_ident : int;
  f_sport : int;
  f_dport : int;
  f_seq : int;
  f_ack : int;
  f_flags : int;
  f_window : int;
  f_payload : string;
}

let frame_case_gen =
  QCheck.Gen.(
    (* Sequence numbers anywhere, but mostly within 2^16 of the wrap. *)
    let seq_gen =
      frequency
        [ (1, int_bound 0xFFFFFFFF); (3, map (fun d -> 0xFFFFFFFF - d) (int_bound 0xFFFF)) ]
    in
    let* f_src = int_bound 0xFFFFFFFF in
    let* f_dst = int_bound 0xFFFFFFFF in
    let* f_ident = int_bound 0xFFFF in
    let* f_sport = int_bound 0xFFFF in
    let* f_dport = int_bound 0xFFFF in
    let* f_seq = seq_gen in
    let* f_ack = seq_gen in
    let* f_flags = int_bound 0x3F in
    let* f_window = int_bound 0x2FFFF in
    let+ f_payload = string_size (0 -- 300) in
    {
      f_src;
      f_dst;
      f_ident;
      f_sport;
      f_dport;
      f_seq;
      f_ack;
      f_flags;
      f_window;
      f_payload;
    })

let prop_frame_builder_equals_encoders =
  QCheck.Test.make ~name:"tcp_output frame = record encoders, byte for byte"
    ~count:500
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "seq %#x ack %#x flags %#x window %#x payload %d B" c.f_seq
           c.f_ack c.f_flags c.f_window (String.length c.f_payload))
       frame_case_gen)
    (fun c ->
      let open Ldlp_packet in
      let pool = Ldlp_buf.Pool.create () in
      let ip x = Addr.Ipv4.of_int32 (Int32.of_int x) in
      let src = ip c.f_src and dst = ip c.f_dst in
      let eth_src = Addr.Mac.of_string "02:00:00:00:00:0a"
      and eth_dst = Addr.Mac.of_string "02:00:00:00:00:0b" in
      let built =
        Tcp_output.frame pool ~eth_src ~eth_dst ~src ~dst ~ident:c.f_ident
          ~src_port:c.f_sport ~dst_port:c.f_dport ~seq:c.f_seq ~ack:c.f_ack
          ~flags:c.f_flags ~window:c.f_window (Bytes.of_string c.f_payload)
      in
      let len = Tcp.header_bytes + String.length c.f_payload in
      let seg = Bytes.create len in
      Tcp.build
        {
          Tcp.src_port = c.f_sport;
          dst_port = c.f_dport;
          seq = c.f_seq;
          ack = c.f_ack;
          data_offset = 5;
          flags = c.f_flags;
          window = min c.f_window 0xFFFF;
          urgent = 0;
        }
        seg 0;
      Bytes.blit_string c.f_payload 0 seg Tcp.header_bytes (String.length c.f_payload);
      Bytes.set_uint16_be seg 16 (Tcp.checksum ~src ~dst seg 0 len);
      let reference =
        Ethernet.encapsulate
          (Ipv4.encapsulate (Ldlp_buf.Mbuf.of_bytes pool seg)
             {
               Ipv4.ihl = 5;
               tos = 0;
               total_length = 0;
               ident = c.f_ident;
               dont_fragment = true;
               more_fragments = false;
               fragment_offset = 0;
               ttl = 64;
               protocol = Ipv4.proto_tcp;
               src;
               dst;
             })
          { Ethernet.dst = eth_dst; src = eth_src; ethertype = Ethernet.ethertype_ipv4 }
      in
      (* Payloads over 64 B spill past the head mbuf: into a second mbuf,
         or a cluster past 192 B. *)
      let segs_ok =
        Ldlp_buf.Mbuf.nsegs built = if String.length c.f_payload > 64 then 2 else 1
      in
      let same =
        Bytes.equal (Ldlp_buf.Mbuf.to_bytes built) (Ldlp_buf.Mbuf.to_bytes reference)
      in
      Ldlp_buf.Mbuf.free pool built;
      Ldlp_buf.Mbuf.free pool reference;
      segs_ok && same)

let test_ldlp_equals_conventional () =
  let run discipline =
    let _, host = make_host () in
    ignore (Host.listen host ~port:80);
    ignore (handshake host ~src_port:5000);
    let chunks = List.init 16 (fun i -> Printf.sprintf "part%02d." i) in
    let _, frames =
      List.fold_left
        (fun (seq, acc) c ->
          ( Tcp.seq_add seq (String.length c),
            data_frame host ~src_port:5000 ~seq c :: acc ))
        (101, []) chunks
    in
    let replies = run_frames ~discipline host (List.rev frames) in
    let data =
      match
        Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 5000)
      with
      | Some pcb -> Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf)
      | None -> ""
    in
    (data, List.length replies)
  in
  let d1, r1 = run Ldlp_core.Engine.Conventional in
  let d2, r2 = run (Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default) in
  checks "same delivery" d1 d2;
  checki "same ack count" r1 r2;
  checki "acks for every 2nd segment" 8 r1

let test_pcb_cache_effective_on_stream () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:6000);
  let table_stats_before = Pcb.stats (Host.table host) in
  let frames =
    List.mapi
      (fun i c -> data_frame host ~src_port:6000 ~seq:(Tcp.seq_add 101 (8 * i)) c)
      (List.init 50 (fun i -> Printf.sprintf "chunk%03d" i))
  in
  ignore (run_frames host frames);
  let s = Pcb.stats (Host.table host) in
  (* A single-connection stream hits the one-entry cache every time. *)
  checki "all lookups cached"
    (s.Pcb.lookups - table_stats_before.Pcb.lookups)
    (s.Pcb.cache_hits - table_stats_before.Pcb.cache_hits)

let prop_stream_reassembly =
  QCheck.Test.make ~name:"any in-order segmentation delivers the exact stream"
    ~count:50
    QCheck.(list_of_size Gen.(1 -- 12) (QCheck.string_of_size Gen.(1 -- 64)))
    (fun chunks ->
      let _, host = make_host () in
      ignore (Host.listen host ~port:80);
      ignore (handshake host ~src_port:7000);
      let _, frames =
        List.fold_left
          (fun (seq, acc) c ->
            ( Tcp.seq_add seq (String.length c),
              data_frame host ~src_port:7000 ~seq c :: acc ))
          (101, []) chunks
      in
      ignore (run_frames host (List.rev frames));
      match
        Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 7000)
      with
      | Some pcb ->
        Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf) = String.concat "" chunks
      | None -> false)

(* ---------- fragmented input (IP reassembly slow path) ---------- *)

let fragmented_frames host ~src_port ~seq payload =
  (* Build the TCP segment, then hand-fragment it across 3 IP fragments. *)
  let open Ldlp_packet in
  let segment = Bytes.create (Tcp.header_bytes + String.length payload) in
  Tcp.write ~src_port ~dst_port:80 ~seq ~ack:0 ~data_offset:5
    ~flags:(Tcp.flag_ack lor Tcp.flag_psh) ~window:8760 ~urgent:0 segment 0;
  Bytes.blit_string payload 0 segment Tcp.header_bytes (String.length payload);
  Tcp.store_checksum ~src:client_ip ~dst:(Host.ip host) segment 0
    (Bytes.length segment);
  let header =
    {
      Ipv4.ihl = 5;
      tos = 0;
      total_length = 0;
      ident = 0x7777;
      dont_fragment = false;
      more_fragments = false;
      fragment_offset = 0;
      ttl = 64;
      protocol = Ipv4.proto_tcp;
      src = client_ip;
      dst = Host.ip host;
    }
  in
  let pool = Ldlp_buf.Pool.create () in
  List.map
    (fun (h, frag_payload) ->
      let buf = Bytes.create (Ipv4.header_bytes + Bytes.length frag_payload) in
      Ipv4.build h buf 0;
      Bytes.blit frag_payload 0 buf Ipv4.header_bytes (Bytes.length frag_payload);
      let m = Ldlp_buf.Mbuf.of_bytes pool buf in
      Ethernet.encapsulate m
        {
          Ethernet.dst = Addr.Mac.of_string "02:00:00:00:00:01";
          src = Addr.Mac.of_string "02:00:00:00:00:aa";
          ethertype = Ethernet.ethertype_ipv4;
        })
    (Reasm.fragment ~mtu:64 ~header ~payload:segment)

let test_fragmented_segment_reassembled () =
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Host.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
      ~ip:(ipa "10.1.0.1") ~reassemble:true ()
  in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:8000);
  let payload = String.init 150 (fun i -> Char.chr (65 + (i mod 26))) in
  let frags = fragmented_frames host ~src_port:8000 ~seq:101 payload in
  check "actually fragmented" true (List.length frags > 1);
  ignore (run_frames host frags);
  match
    Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 8000)
  with
  | Some pcb ->
    checks "reassembled and delivered" payload
      (Bytes.to_string (Sockbuf.read_all pcb.Pcb.sockbuf))
  | None -> Alcotest.fail "no pcb"

let test_fragments_dropped_without_reassembly () =
  let pool = Ldlp_buf.Pool.create () in
  let host =
    Host.create ~pool
      ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
      ~ip:(ipa "10.1.0.1") ()
  in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:8001);
  let payload = String.make 150 'z' in
  let frags = fragmented_frames host ~src_port:8001 ~seq:101 payload in
  check "actually fragmented" true (List.length frags > 1);
  ignore (run_frames host frags);
  let c = Host.counters host in
  check "fragments counted as bad" true (c.Host.bad_ip >= List.length frags);
  match
    Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, 8001)
  with
  | Some pcb -> checki "nothing delivered" 0 (Sockbuf.length pcb.Pcb.sockbuf)
  | None -> Alcotest.fail "no pcb"

(* ---------- Rto ---------- *)

let checkf = Alcotest.(check (float 1e-9))

let test_rto_estimator () =
  checkf "initial" 1.0 Rto.initial_rto;
  checkf "min" 0.2 Rto.min_rto;
  checkf "max" 60.0 Rto.max_rto;
  let r = Rto.create () in
  check "no sample yet" true (Rto.srtt r = None);
  checkf "initial rto" Rto.initial_rto (Rto.rto r);
  Rto.observe r 0.1;
  (match Rto.srtt r with
  | Some s -> checkf "first sample initialises srtt" 0.1 s
  | None -> Alcotest.fail "no srtt after observe");
  (* rttvar starts at sample/2: rto = 0.1 + 4 * 0.05. *)
  checkf "rto after first sample" 0.3 (Rto.rto r);
  Rto.observe r 0.1;
  (* A steady rtt decays the variance term: rttvar = 0.05 * 3/4. *)
  checkf "steady sample decays rttvar" (0.1 +. (4.0 *. 0.0375)) (Rto.rto r);
  (* A sub-millisecond LAN rtt clamps at min_rto. *)
  let r2 = Rto.create () in
  Rto.observe r2 1e-4;
  checkf "min clamp" Rto.min_rto (Rto.rto r2)

let test_rto_backoff () =
  let r = Rto.create () in
  Rto.observe r 0.1;
  let base = Rto.rto r in
  Rto.backoff r;
  checkf "doubled" (2.0 *. base) (Rto.rto r);
  Rto.backoff r;
  checkf "quadrupled" (4.0 *. base) (Rto.rto r);
  checki "backoff count" 2 (Rto.backoff_count r);
  Rto.reset_backoff r;
  checkf "reset" base (Rto.rto r);
  for _ = 1 to 40 do
    Rto.backoff r
  done;
  checkf "max clamp" Rto.max_rto (Rto.rto r)

(* Arbitrary RTT histories (LAN-scale to WAN-scale samples): the
   estimator's invariants must hold on every one. *)
let rto_samples =
  QCheck.(list_of_size Gen.(0 -- 20) (float_bound_exclusive 2.0))

let prop_rto_backoff_doubles_to_clamp =
  QCheck.Test.make ~name:"rto: backoff doubles exactly until the RFC clamp"
    ~count:300
    QCheck.(pair rto_samples (int_bound 24))
    (fun (samples, backoffs) ->
      let r = Rto.create () in
      List.iter (Rto.observe r) samples;
      let ok = ref (Rto.rto r >= Rto.min_rto && Rto.rto r <= Rto.max_rto) in
      for _ = 1 to backoffs do
        let before = Rto.rto r in
        Rto.backoff r;
        (* Doubling a binary float is exact, so so is the clamp. *)
        ok := !ok && Rto.rto r = Float.min Rto.max_rto (2.0 *. before)
      done;
      !ok)

let prop_rto_never_decreases_under_backoff =
  QCheck.Test.make ~name:"rto: backoff never decreases the timeout" ~count:300
    QCheck.(pair rto_samples (int_bound 24))
    (fun (samples, backoffs) ->
      let r = Rto.create () in
      List.iter (Rto.observe r) samples;
      let ok = ref true in
      for _ = 1 to backoffs do
        let before = Rto.rto r in
        Rto.backoff r;
        ok := !ok && Rto.rto r >= before && Rto.rto r <= Rto.max_rto
      done;
      !ok)

let prop_rto_reset_restores_base =
  QCheck.Test.make
    ~name:"rto: reset after fresh samples restores the unbacked-off base"
    ~count:300
    QCheck.(pair (pair rto_samples rto_samples) (int_bound 24))
    (fun ((samples, fresh), backoffs) ->
      (* A connection that timed out [backoffs] times then saw fresh
         acks must quote the same timeout as one that never backed off
         but observed the same RTT history. *)
      let r = Rto.create () in
      List.iter (Rto.observe r) samples;
      for _ = 1 to backoffs do
        Rto.backoff r
      done;
      List.iter (Rto.observe r) fresh;
      Rto.reset_backoff r;
      let reference = Rto.create () in
      List.iter (Rto.observe reference) samples;
      List.iter (Rto.observe reference) fresh;
      Rto.backoff_count r = 0 && Rto.rto r = Rto.rto reference)

(* ---------- Pcb segment tracking and Karn's rule ---------- *)

let test_pcb_track_and_karn () =
  let t = Pcb.create_table () in
  let l = Pcb.listen t ~port:80 () in
  let pcb = Pcb.insert_connection t ~listener:l ~remote:(ipa "10.0.0.9", 1) in
  pcb.Pcb.state <- Pcb.Established;
  pcb.Pcb.snd_una <- 100;
  pcb.Pcb.snd_nxt <- 100;
  Pcb.track pcb ~now:1.0 ~seq:100 ~flags:Tcp.flag_ack (Bytes.make 10 'x');
  pcb.Pcb.snd_nxt <- 110;
  checki "one unacked" 1 (Pcb.unacked pcb);
  (* A segment transmitted exactly once yields an RTT sample... *)
  (match Pcb.on_ack pcb ~now:1.5 110 with
  | Pcb.Ack_new (Some s) -> checkf "sample = ack - send time" 0.5 s
  | _ -> Alcotest.fail "expected Ack_new with a sample");
  (* ...a retransmitted one must not (Karn's rule). *)
  Pcb.track pcb ~now:2.0 ~seq:110 ~flags:Tcp.flag_ack (Bytes.make 5 'y');
  pcb.Pcb.snd_nxt <- 115;
  (match Pcb.oldest_unacked pcb with
  | Some s ->
    s.Pcb.seg_rexmits <- 1;
    s.Pcb.seg_sent_at <- 2.6
  | None -> Alcotest.fail "no tracked segment");
  (match Pcb.on_ack pcb ~now:3.0 115 with
  | Pcb.Ack_new None -> ()
  | Pcb.Ack_new (Some _) -> Alcotest.fail "Karn's rule violated"
  | _ -> Alcotest.fail "expected Ack_new");
  checki "queue drained" 0 (Pcb.unacked pcb);
  (* An ack below snd_una is old; an ack at snd_una is a duplicate. *)
  check "old" true (Pcb.on_ack pcb ~now:3.0 100 = Pcb.Ack_old);
  check "duplicate" true (Pcb.on_ack pcb ~now:3.0 115 = Pcb.Ack_duplicate)

(* ---------- Loss recovery through the host timers ---------- *)

(* A manual clock + event list standing in for the discrete-event engine:
   [advance] runs due callbacks in (time, insertion) order. *)
module Fake_clock = struct
  type ev = { at : float; k : unit -> unit; id : int }

  type t = { mutable now : float; mutable events : ev list; mutable next : int }

  let create () = { now = 0.0; events = []; next = 0 }

  let schedule t d k =
    t.events <- { at = t.now +. d; k; id = t.next } :: t.events;
    t.next <- t.next + 1

  let rec advance t until =
    let due = List.filter (fun e -> e.at <= until) t.events in
    match List.sort (fun a b -> compare (a.at, a.id) (b.at, b.id)) due with
    | [] -> t.now <- until
    | e :: _ ->
      t.events <- List.filter (fun e' -> e'.id <> e.id) t.events;
      t.now <- e.at;
      e.k ();
      advance t until
end

let attach_fake_timers host =
  let clk = Fake_clock.create () in
  let txed = ref [] in
  Host.attach_timers host
    ~now:(fun () -> clk.Fake_clock.now)
    ~schedule:(Fake_clock.schedule clk)
    ~tx:(fun f -> txed := f :: !txed);
  (clk, txed)

let established_pcb host ~src_port =
  match Pcb.lookup (Host.table host) ~local_port:80 ~remote:(client_ip, src_port) with
  | Some pcb -> pcb
  | None -> Alcotest.fail "no pcb"

let test_retransmission_timeout_and_backoff () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  let clk, txed = attach_fake_timers host in
  ignore (handshake host ~src_port:9000);
  let pcb = established_pcb host ~src_port:9000 in
  (* Let the (now pointless) handshake retransmission timer expire with
     an empty queue, then send data and lose the original transmission
     on the floor. *)
  Fake_clock.advance clk 1.0;
  checki "acked handshake retransmits nothing" 0
    (Host.counters host).Host.retransmits;
  (match Host.send host pcb (Bytes.of_string "needs-ack") with
  | Some _ -> ()
  | None -> Alcotest.fail "send refused");
  checki "tracked" 1 (Pcb.unacked pcb);
  (* The handshake rtt sample was ~0, so the timer sits at min_rto. *)
  Fake_clock.advance clk 1.3;
  checki "first timeout retransmitted" 1 (Host.counters host).Host.retransmits;
  checki "backoff applied" 1 (Rto.backoff_count pcb.Pcb.rto);
  (* Next deadline doubled: min_rto * 2 past the retransmission. *)
  Fake_clock.advance clk 1.5;
  checki "not yet" 1 (Host.counters host).Host.retransmits;
  Fake_clock.advance clk 1.7;
  checki "second timeout" 2 (Host.counters host).Host.retransmits;
  (* Both retransmissions carried the original segment. *)
  let frames = List.rev !txed in
  checki "two frames on the wire" 2 (List.length frames);
  List.iter
    (fun f ->
      match Host.parse_tx host (Host.wrap host f) with
      | Some (h, payload) ->
        check "data flags" true (Tcp.has_flag h Tcp.flag_psh);
        checks "payload intact" "needs-ack" (Bytes.to_string payload)
      | None -> Alcotest.fail "unparseable retransmission")
    frames;
  (* The ack finally lands: queue drains, backoff resets, timer goes quiet. *)
  let ack =
    Host.client_frame host ~src_ip:client_ip ~src_port:9000 ~dst_port:80
      ~seq:101 ~ack:pcb.Pcb.snd_nxt ~flags:Tcp.flag_ack ()
  in
  checki "no reply to the ack" 0 (List.length (run_frames host [ ack ]));
  checki "queue drained" 0 (Pcb.unacked pcb);
  checki "backoff reset" 0 (Rto.backoff_count pcb.Pcb.rto);
  txed := [];
  Fake_clock.advance clk 100.0;
  checki "silent once acked" 0 (List.length !txed);
  checki "no further retransmits" 2 (Host.counters host).Host.retransmits

let test_fast_retransmit_on_third_dupack () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  let _clk, _txed = attach_fake_timers host in
  ignore (handshake host ~src_port:9001);
  let pcb = established_pcb host ~src_port:9001 in
  (match Host.send host pcb (Bytes.of_string "lost") with
  | Some _ -> ()
  | None -> Alcotest.fail "send refused");
  let dup () =
    Host.client_frame host ~src_ip:client_ip ~src_port:9001 ~dst_port:80
      ~seq:101 ~ack:pcb.Pcb.snd_una ~flags:Tcp.flag_ack ()
  in
  checki "1st dup-ack: silent" 0 (List.length (run_frames host [ dup () ]));
  checki "2nd dup-ack: silent" 0 (List.length (run_frames host [ dup () ]));
  checki "no retransmit below threshold" 0 (Host.counters host).Host.retransmits;
  (match run_frames host [ dup () ] with
  | [ (h, payload) ] ->
    check "3rd dup-ack fast-retransmits" true (Tcp.has_flag h Tcp.flag_psh);
    checks "the lost segment" "lost" (Bytes.to_string payload)
  | l -> Alcotest.failf "expected the fast retransmit, got %d" (List.length l));
  checki "counted" 1 (Host.counters host).Host.retransmits;
  (* A fourth duplicate does not retransmit again. *)
  checki "4th dup-ack: silent" 0 (List.length (run_frames host [ dup () ]));
  checki "still one" 1 (Host.counters host).Host.retransmits

let test_delayed_ack_timer () =
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  let clk, txed = attach_fake_timers host in
  ignore (handshake host ~src_port:9002);
  check "delack below min_rto" true (Host.delack_timeout < Rto.min_rto);
  (* A single data segment: 4.4BSD waits for a second one... *)
  let seg = data_frame host ~src_port:9002 ~seq:101 "hi" in
  checki "no immediate ack" 0 (List.length (run_frames host [ seg ]));
  checki "nothing transmitted yet" 0 (List.length !txed);
  (* ...but the delayed-ACK timer bounds the wait. *)
  Fake_clock.advance clk (Host.delack_timeout +. 0.001);
  (match !txed with
  | [ f ] -> (
    match Host.parse_tx host (Host.wrap host f) with
    | Some (h, payload) ->
      check "pure ack" true
        (Tcp.has_flag h Tcp.flag_ack && not (Tcp.has_flag h Tcp.flag_psh));
      check "acks the segment" true (h.Tcp.ack = 103);
      checki "no payload" 0 (Bytes.length payload)
    | None -> Alcotest.fail "unparseable delayed ack")
  | l -> Alcotest.failf "expected 1 delayed ack, got %d" (List.length l));
  (* The timer is one-shot: nothing further fires. *)
  txed := [];
  Fake_clock.advance clk 10.0;
  checki "quiet afterwards" 0 (List.length !txed)

let test_pure_ack_never_answered () =
  (* Regression: a pure ACK (no data, no SYN/FIN) must never generate an
     ACK in reply — with both ends acking acks, two established hosts
     volley forever.  Found by the chaos soak's delayed-ACK timer. *)
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:9003);
  let pcb = established_pcb host ~src_port:9003 in
  let pure_ack ~ack =
    Host.client_frame host ~src_ip:client_ip ~src_port:9003 ~dst_port:80
      ~seq:101 ~ack ~flags:Tcp.flag_ack ()
  in
  checki "window-update ack: silent" 0
    (List.length (run_frames host [ pure_ack ~ack:pcb.Pcb.snd_nxt ]));
  checki "duplicate ack: silent" 0
    (List.length (run_frames host [ pure_ack ~ack:pcb.Pcb.snd_una ]));
  (* A segment that occupies sequence space still gets its ACK. *)
  let seg = data_frame host ~src_port:9003 ~seq:101 "oo" in
  let seg2 = data_frame host ~src_port:9003 ~seq:103 "xx" in
  checki "data still acked" 1 (List.length (run_frames host [ seg; seg2 ]))

let test_send_settles_owed_ack () =
  (* Without timers: a lone data segment owes an ACK, and the data the
     host sends next carries it, so nothing is owed after the send — as
     4.4BSD's tcp_output clears its delayed-ACK flag on every segment
     that carries an ACK.  The next data segment starts a new pair
     rather than drawing a pure ACK. *)
  let _, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:9004);
  let pcb = established_pcb host ~src_port:9004 in
  checki "first segment: no reply" 0
    (List.length (run_frames host [ data_frame host ~src_port:9004 ~seq:101 "ping" ]));
  (match Host.send host pcb (Bytes.of_string "pong") with
  | Some f -> (
    match Host.parse_tx host (Host.wrap host f) with
    | Some (h, _) -> check "the response acks the segment" true (h.Tcp.ack = 105)
    | None -> Alcotest.fail "unparseable response")
  | None -> Alcotest.fail "send refused");
  checki "nothing owed after the send" 0 pcb.Pcb.delayed_ack;
  checki "second segment: no pure ack" 0
    (List.length (run_frames host [ data_frame host ~src_port:9004 ~seq:105 "ping" ]))

(* A connect whose every frame is lost: the SYN is retransmitted with
   backoff 12 times, and the next expiry drops the connection (4.4BSD's
   TCP_MAXRXTSHIFT) and arms nothing more, so the event list drains.  A
   timer that backs off forever never lets it drain, so the clock runs a
   bounded number of 100 s steps. *)
let test_retransmission_limit_drops () =
  let pool, host = make_host () in
  let clk, txed = attach_fake_timers host in
  let pcb, syn = Host.connect host ~dst:(client_ip, 80) ~src_port:5555 in
  Ldlp_buf.Mbuf.free pool syn;
  let steps = ref 0 in
  while clk.Fake_clock.events <> [] && !steps < 50 do
    incr steps;
    Fake_clock.advance clk (clk.Fake_clock.now +. 100.0);
    List.iter (Ldlp_buf.Mbuf.free pool) !txed;
    txed := []
  done;
  check "no timer left" true (clk.Fake_clock.events = []);
  check "retransmission timer disarmed" false pcb.Pcb.rtx_armed;
  check "closed" true (pcb.Pcb.state = Pcb.Closed);
  checki "12 backoffs" 12 (Rto.backoff_count pcb.Pcb.rto);
  checki "12 retransmissions" 12 (Host.counters host).Host.retransmits;
  checki "one timeout drop counted" 1 (Host.counters host).Host.timeout_drops;
  checki "connection gone from the table" 0 (Pcb.connections (Host.table host))

(* ---------- Parser hardening: mutation fuzz over the stack ---------- *)

let pool_in_use pool =
  let s = Ldlp_buf.Pool.stats pool in
  s.Ldlp_buf.Pool.small_in_use + s.Ldlp_buf.Pool.cluster_in_use

let test_truncation_and_garbage_counted () =
  let pool, host = make_host () in
  ignore (Host.listen host ~port:80);
  ignore (handshake host ~src_port:9200);
  let baseline = pool_in_use pool in
  (* Runt frame: too short for an Ethernet header. *)
  let runt = Ldlp_buf.Mbuf.of_bytes pool (Bytes.make 6 '\x42') in
  checki "runt: no reply" 0 (List.length (run_frames host [ runt ]));
  checki "runt counted non_ip" 1 (Host.counters host).Host.non_ip;
  (* Valid Ethernet, garbage IP. *)
  let seg = data_frame host ~src_port:9200 ~seq:101 "x" in
  let b = Ldlp_buf.Mbuf.to_bytes seg in
  Ldlp_buf.Mbuf.free pool seg;
  let garbage_ip = Bytes.sub b 0 16 in
  checki "garbage ip: no reply" 0
    (List.length (run_frames host [ Ldlp_buf.Mbuf.of_bytes pool garbage_ip ]));
  checki "counted bad_ip" 1 (Host.counters host).Host.bad_ip;
  (* Valid Ethernet + IP but a non-TCP protocol. *)
  let non_tcp = Bytes.copy b in
  Bytes.set non_tcp 23 '\x11' (* IPPROTO_UDP *);
  (* Fix the IP header checksum for the protocol change (byte 23 is in
     the 16-bit word at offset 22; adjust the checksum incrementally). *)
  let get16 buf off = (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1)) in
  let set16 buf off v =
    Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
    Bytes.set buf (off + 1) (Char.chr (v land 0xff))
  in
  let old_word = get16 b 22 and new_word = get16 non_tcp 22 in
  let cksum = get16 non_tcp 24 in
  let adjusted = (lnot cksum land 0xffff) - old_word + new_word in
  let adjusted = ((adjusted mod 0xffff) + 0xffff) mod 0xffff in
  set16 non_tcp 24 (lnot adjusted land 0xffff);
  checki "udp: no reply" 0
    (List.length (run_frames host [ Ldlp_buf.Mbuf.of_bytes pool non_tcp ]));
  checki "counted non_tcp" 1 (Host.counters host).Host.non_tcp;
  checki "every rejected mbuf freed" baseline (pool_in_use pool)

let prop_mutated_frames_never_raise =
  (* Any truncation or single byte-flip of a valid frame is absorbed by
     the stack: no exception escapes Host.layers and the mbuf is freed no
     matter which layer rejects it (or none — some flips leave the frame
     deliverable). *)
  QCheck.Test.make ~name:"mutated frames never raise and never leak" ~count:250
    QCheck.(
      triple
        (string_of_size Gen.(1 -- 40))
        (pair (0 -- 10_000) (0 -- 7))
        bool)
    (fun (payload, (site, bit), truncate) ->
      let pool, host = make_host () in
      ignore (Host.listen host ~port:80);
      ignore (handshake host ~src_port:9100);
      let baseline = pool_in_use pool in
      let frame = data_frame host ~src_port:9100 ~seq:101 payload in
      let b = Ldlp_buf.Mbuf.to_bytes frame in
      Ldlp_buf.Mbuf.free pool frame;
      let len = Bytes.length b in
      let mutated =
        if truncate then Bytes.sub b 0 (site mod len)
        else begin
          let pos = site mod len in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          b
        end
      in
      let ok =
        try
          if Bytes.length mutated > 0 then
            ignore (run_frames host [ Ldlp_buf.Mbuf.of_bytes pool mutated ]);
          true
        with _ -> false
      in
      ok && pool_in_use pool = baseline)

let suite =
  [
    Alcotest.test_case "sockbuf basic" `Quick test_sockbuf_basic;
    Alcotest.test_case "sockbuf hiwat" `Quick test_sockbuf_hiwat;
    Alcotest.test_case "sockbuf wakeups" `Quick test_sockbuf_wakeups;
    QCheck_alcotest.to_alcotest prop_sockbuf_fifo;
    Alcotest.test_case "sockbuf ring fill allocates nothing" `Quick
      test_sockbuf_ring_fill_zero_alloc;
    Alcotest.test_case "pcb listen/lookup" `Quick test_pcb_listen_and_lookup;
    Alcotest.test_case "pcb double listen" `Quick test_pcb_double_listen_rejected;
    Alcotest.test_case "pcb cache hits" `Quick test_pcb_cache_hits;
    Alcotest.test_case "pcb drop" `Quick test_pcb_drop;
    Alcotest.test_case "handshake" `Quick test_handshake;
    Alcotest.test_case "data + delayed ack" `Quick test_data_delivery_and_delayed_ack;
    Alcotest.test_case "out of order dup-ack" `Quick test_out_of_order_dup_ack;
    Alcotest.test_case "fin -> close-wait" `Quick test_fin_moves_to_close_wait;
    Alcotest.test_case "rst teardown" `Quick test_rst_tears_down;
    Alcotest.test_case "no listener -> rst" `Quick test_no_listener_rst;
    Alcotest.test_case "bad checksum dropped" `Quick test_corrupt_checksum_dropped;
    Alcotest.test_case "window respected" `Quick test_window_respected;
    Alcotest.test_case "syn with mss option answered" `Quick test_syn_with_mss_answered;
    Alcotest.test_case "options skipped on data" `Quick test_options_skipped_on_data;
    QCheck_alcotest.to_alcotest prop_frame_builder_equals_encoders;
    Alcotest.test_case "ldlp = conventional" `Quick test_ldlp_equals_conventional;
    Alcotest.test_case "pcb cache on stream" `Quick test_pcb_cache_effective_on_stream;
    QCheck_alcotest.to_alcotest prop_stream_reassembly;
    Alcotest.test_case "fragmented segment reassembled" `Quick
      test_fragmented_segment_reassembled;
    Alcotest.test_case "fragments dropped without reassembly" `Quick
      test_fragments_dropped_without_reassembly;
    Alcotest.test_case "rto estimator" `Quick test_rto_estimator;
    Alcotest.test_case "rto backoff" `Quick test_rto_backoff;
    QCheck_alcotest.to_alcotest prop_rto_backoff_doubles_to_clamp;
    QCheck_alcotest.to_alcotest prop_rto_never_decreases_under_backoff;
    QCheck_alcotest.to_alcotest prop_rto_reset_restores_base;
    Alcotest.test_case "pcb tracking + Karn's rule" `Quick
      test_pcb_track_and_karn;
    Alcotest.test_case "retransmission timeout + backoff" `Quick
      test_retransmission_timeout_and_backoff;
    Alcotest.test_case "fast retransmit on 3rd dup-ack" `Quick
      test_fast_retransmit_on_third_dupack;
    Alcotest.test_case "delayed-ack timer" `Quick test_delayed_ack_timer;
    Alcotest.test_case "pure ack never answered" `Quick
      test_pure_ack_never_answered;
    Alcotest.test_case "a data send settles the owed ACK without timers" `Quick
      test_send_settles_owed_ack;
    Alcotest.test_case "retransmission limit drops the connection" `Quick
      test_retransmission_limit_drops;
    Alcotest.test_case "truncation/garbage counted and freed" `Quick
      test_truncation_and_garbage_counted;
    QCheck_alcotest.to_alcotest prop_mutated_frames_never_raise;
  ]
