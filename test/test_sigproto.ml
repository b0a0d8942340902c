(* Tests for the Q.93B-like signalling substrate: IEs, message codec, call
   FSM, SSCOP-lite, the switch, and the LDLP layer adapters. *)

open Ldlp_sigproto

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ---------- IEs ---------- *)

let test_ie_constructors () =
  checks "qos" "\x04" (Ie.qos 4).Ie.data;
  checks "called party" "host-b" (Ie.called_party "host-b").Ie.data;
  (* Written in place: id and length, then the VPI byte and the VCI
     big-endian (1234 = 0x04d2); a cause is one byte. *)
  let b = Bytes.create (Ie.vpc_vci_bytes + Ie.cause_bytes) in
  Ie.write_vpc_vci b 0 ~vpi:3 ~vci:1234;
  Ie.write_cause b Ie.vpc_vci_bytes 16;
  checks "vpc/vci, then cause" "\x5a\x00\x03\x03\x04\xd2\x08\x00\x01\x10"
    (Bytes.to_string b)

let test_ie_find () =
  let ies = [ Ie.qos 1; Ie.called_party "x" ] in
  let buf = Bytes.create (Ie.encoded_length ies) in
  let stop = Ie.encode_list ies buf 0 in
  checki "found after the 4-byte qos element" 4
    (Ie.find_at Ie.id_called_party buf 0 stop);
  checki "its data" 1 (Ie.data_length_at buf 4);
  checki "absent" (-1) (Ie.find_at 0x08 buf 0 stop)

let test_ie_list_roundtrip () =
  let ies = [ Ie.called_party "addr-1"; Ie.qos 2; { Ie.id = 0x5A; data = "\x00\x00\x4d" } ] in
  let buf = Bytes.create (Ie.encoded_length ies) in
  let stop = Ie.encode_list ies buf 0 in
  checki "length" (Bytes.length buf) stop;
  match Ie.decode_list buf 0 stop with
  | Error _ -> Alcotest.fail "decode failed"
  | Ok ies' ->
    checki "count" 3 (List.length ies');
    List.iter2
      (fun a b ->
        checki "id" a.Ie.id b.Ie.id;
        checks "data" a.Ie.data b.Ie.data)
      ies ies'

let test_ie_truncated () =
  match Ie.decode_list (Bytes.of_string "\x70\x00") 0 2 with
  | Error `Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated"

let test_ie_bad_length () =
  match Ie.decode_list (Bytes.of_string "\x70\x00\x09xx") 0 5 with
  | Error (`Bad_length 9) -> ()
  | _ -> Alcotest.fail "expected Bad_length"

let ie_arb =
  QCheck.make
    ~print:(fun ie -> Printf.sprintf "{id=%d;data=%S}" ie.Ie.id ie.Ie.data)
    QCheck.Gen.(
      map2
        (fun id data -> { Ie.id; data })
        (int_bound 255)
        (string_size (0 -- 64)))

let prop_ie_roundtrip =
  QCheck.Test.make ~name:"IE list encode/decode roundtrip" ~count:300
    QCheck.(list_of_size Gen.(0 -- 8) ie_arb)
    (fun ies ->
      let buf = Bytes.create (Ie.encoded_length ies) in
      let stop = Ie.encode_list ies buf 0 in
      match Ie.decode_list buf 0 stop with
      | Ok ies' -> ies = ies'
      | Error _ -> false)

(* ---------- Sigmsg ---------- *)

let all_types =
  [
    Sigmsg.Setup;
    Sigmsg.Call_proceeding;
    Sigmsg.Connect;
    Sigmsg.Connect_ack;
    Sigmsg.Release;
    Sigmsg.Release_complete;
    Sigmsg.Status;
    Sigmsg.Status_enquiry;
  ]

(* Each type's code in the message-type byte (byte 5), and back. *)
let test_msg_type_codes () =
  List.iter2
    (fun t code ->
      let b = Sigmsg.encode (Sigmsg.v ~call_ref:1 t []) in
      checki (Sigmsg.msg_type_name t) code (Bytes.get_uint8 b 5);
      match Sigmsg.decode b with
      | Ok m -> check "code roundtrip" true (m.Sigmsg.typ = t)
      | Error _ -> Alcotest.fail "code roundtrip")
    all_types
    [ 0x05; 0x02; 0x07; 0x0F; 0x4D; 0x5A; 0x7D; 0x75 ];
  let b = Sigmsg.encode (Sigmsg.v ~call_ref:1 Sigmsg.Setup []) in
  Bytes.set_uint8 b 5 0xEE;
  check "unknown code" true
    (match Sigmsg.decode b with Error (`Unknown_type 0xEE) -> true | _ -> false)

let test_sigmsg_roundtrip () =
  let m =
    Sigmsg.v ~call_ref:0x123456 Sigmsg.Setup
      [ Ie.called_party "b"; Ie.qos 1 ]
  in
  match Sigmsg.decode (Sigmsg.encode m) with
  | Error _ -> Alcotest.fail "decode failed"
  | Ok m' ->
    checki "call ref" 0x123456 m'.Sigmsg.call_ref;
    check "direction" true m'.Sigmsg.from_originator;
    check "type" true (m'.Sigmsg.typ = Sigmsg.Setup);
    checki "ies" 2 (List.length m'.Sigmsg.ies)

let test_sigmsg_direction_flag () =
  let m = Sigmsg.v ~from_originator:false ~call_ref:1 Sigmsg.Connect [] in
  match Sigmsg.decode (Sigmsg.encode m) with
  | Ok m' -> check "flag preserved" false m'.Sigmsg.from_originator
  | Error _ -> Alcotest.fail "decode failed"

let test_sigmsg_errors () =
  (match Sigmsg.decode (Bytes.create 4) with
  | Error (`Too_short 4) -> ()
  | _ -> Alcotest.fail "expected Too_short");
  let m = Sigmsg.encode (Sigmsg.v ~call_ref:1 Sigmsg.Setup []) in
  let bad = Bytes.copy m in
  Bytes.set bad 0 '\x08';
  (match Sigmsg.decode bad with
  | Error (`Bad_discriminator 8) -> ()
  | _ -> Alcotest.fail "expected Bad_discriminator");
  let bad2 = Bytes.copy m in
  Bytes.set bad2 5 '\xEE';
  (match Sigmsg.decode bad2 with
  | Error (`Unknown_type 0xEE) -> ()
  | _ -> Alcotest.fail "expected Unknown_type")

let test_sigmsg_call_ref_range () =
  check "oversized call ref rejected" true
    (try
       ignore (Sigmsg.v ~call_ref:0x800000 Sigmsg.Setup []);
       false
     with Invalid_argument _ -> true)

let prop_sigmsg_roundtrip =
  QCheck.Test.make ~name:"signalling message encode/decode roundtrip"
    ~count:300
    QCheck.(
      triple (int_bound 0x7FFFFF) (int_bound 7)
        (list_of_size Gen.(0 -- 5) ie_arb))
    (fun (call_ref, ti, ies) ->
      let typ = List.nth all_types ti in
      let m = Sigmsg.v ~call_ref typ ies in
      match Sigmsg.decode (Sigmsg.encode m) with
      | Ok m' -> m = m'
      | Error _ -> false)

(* ---------- The cursor codec against the record decoder ---------- *)

(* A valid encoding of any message type with 0-3 elements, then one
   mutation: truncation, bit flips, a lie in an element's length field or
   in the message's, or a splice of two encodings.  The result sits at a
   random offset inside random bytes, and the slice may run past the
   message into them, as a frame's tail can. *)
let gen_encoding =
  let open QCheck.Gen in
  let ie = map2 (fun id data -> { Ie.id; data }) (int_bound 255) (string_size (0 -- 12)) in
  map
    (fun (((call_ref, from_originator), ti), ies) ->
      Sigmsg.encode (Sigmsg.v ~from_originator ~call_ref (List.nth all_types ti) ies))
    (pair (pair (pair (int_bound 0x7FFFFF) bool) (int_bound 7)) (list_size (0 -- 3) ie))

(* Offsets of the element headers in an encoding, for the length lies. *)
let ie_offsets b =
  let rec go p acc =
    if p + 3 > Bytes.length b then List.rev acc
    else go (p + 3 + Bytes.get_uint16_be b (p + 1)) (p :: acc)
  in
  go Sigmsg.header_bytes []

let mutate rand b other =
  let n = Bytes.length b and int k = Random.State.int rand k in
  match int 6 with
  | 0 -> b
  | 1 -> Bytes.sub b 0 (int n)
  | 2 ->
    let b = Bytes.copy b in
    for _ = 0 to int 3 do
      let i = int n in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl int 8))
    done;
    b
  | 3 -> (
    let b = Bytes.copy b in
    match ie_offsets b with
    | [] -> b
    | ps ->
      let p = List.nth ps (int (List.length ps)) in
      let real = Bytes.get_uint16_be b (p + 1) in
      Bytes.set_uint16_be b (p + 1)
        (if int 4 = 0 then int 0x10000 else Int.max 0 (real - 4 + int 9));
      b)
  | 4 ->
    let b = Bytes.copy b in
    let real = Bytes.get_uint16_be b 6 in
    Bytes.set_uint16_be b 6 (if int 4 = 0 then int 0x10000 else Int.max 0 (real - 4 + int 9));
    b
  | _ ->
    let cut = int (n + 1) and from = int (Bytes.length other + 1) in
    Bytes.cat (Bytes.sub b 0 cut) (Bytes.sub other from (Bytes.length other - from))

type placed = { buf : bytes; off : int; len : int }

let gen_placed =
  let open QCheck.Gen in
  map
    (fun (((a, other), (lead, tail)), (junk, seed)) ->
      let rand = Random.State.make [| seed |] in
      let m = mutate rand a other in
      let buf =
        Bytes.init (lead + Bytes.length m + tail) (fun i ->
            Char.chr (Hashtbl.hash (junk, i) land 0xFF))
      in
      Bytes.blit m 0 buf lead (Bytes.length m);
      { buf; off = lead; len = Bytes.length m + Random.State.int rand (tail + 1) })
    (pair (pair (pair gen_encoding gen_encoding) (pair (0 -- 5) (0 -- 4))) (pair int int))

let show_placed p =
  Printf.sprintf "off=%d len=%d %S" p.off p.len (Bytes.to_string p.buf)

(* Where each decoded element starts, in order. *)
let element_offsets first ies =
  let _, offs =
    List.fold_left
      (fun (p, acc) ie -> (p + Ie.header_bytes + String.length ie.Ie.data, p :: acc))
      (first, []) ies
  in
  List.rev offs

let prop_cursor_codec_total =
  QCheck.Test.make ~name:"check_at accepts what decode_sub accepts; cursors agree" ~count:2000
    (QCheck.make ~print:show_placed gen_placed)
    (fun { buf; off; len } ->
      let ie_len = Sigmsg.check_at buf off len in
      match Sigmsg.decode_sub buf off len with
      | Error _ -> ie_len = -1
      | Ok m ->
        let ies = off + Sigmsg.header_bytes in
        let offs = element_offsets ies m.Sigmsg.ies in
        ie_len = Sigmsg.ie_length_at buf off
        && ie_len = Ie.encoded_length m.Sigmsg.ies
        && Sigmsg.call_ref_at buf off = m.Sigmsg.call_ref
        && Sigmsg.from_originator_at buf off = m.Sigmsg.from_originator
        && Sigmsg.typ_at buf off = m.Sigmsg.typ
        && List.for_all
             (fun id ->
               let first =
                 List.find_opt (fun (ie, _) -> ie.Ie.id = id) (List.combine m.Sigmsg.ies offs)
               in
               let p = Ie.find_at id buf ies ie_len in
               match first with
               | None -> p = -1
               | Some (ie, at) ->
                 p = at
                 && Ie.data_length_at buf p = String.length ie.Ie.data
                 && Bytes.sub_string buf (p + Ie.header_bytes) (Ie.data_length_at buf p)
                    = ie.Ie.data)
             (0 :: 255 :: Ie.id_called_party :: List.map (fun ie -> ie.Ie.id) m.Sigmsg.ies))

(* The battery must reach both verdicts and every mutation's effect: a
   generator that only ever produced valid messages, or only garbage,
   would pass the property above without testing it. *)
let test_cursor_battery_reaches_both_verdicts () =
  let rand = Random.State.make [| 1996 |] in
  let accepted = ref 0 and rejected = ref 0 and lied = ref 0 in
  for _ = 1 to 2000 do
    let p = QCheck.Gen.generate1 ~rand gen_placed in
    match Sigmsg.decode_sub p.buf p.off p.len with
    | Ok _ -> incr accepted
    | Error (`Bad_length _ | `Truncated) -> incr lied; incr rejected
    | Error _ -> incr rejected
  done;
  check (Printf.sprintf "%d accepted" !accepted) true (!accepted > 400);
  check (Printf.sprintf "%d rejected" !rejected) true (!rejected > 400);
  check (Printf.sprintf "%d length faults" !lied) true (!lied > 100)

(* ---------- FSM ---------- *)

let run_events state events =
  List.fold_left
    (fun (state, acc) ev ->
      match Fsm.step state ev with
      | Fsm.Ok_next (s, actions) -> (s, acc @ actions)
      | Fsm.Protocol_error e -> Alcotest.failf "protocol error: %s" e)
    (state, []) events

let test_fsm_originating_happy_path () =
  let state, actions =
    run_events Fsm.Null
      [
        Fsm.Api_setup;
        Fsm.Recv Sigmsg.Call_proceeding;
        Fsm.Recv Sigmsg.Connect;
      ]
  in
  check "active" true (state = Fsm.Active);
  check "sent setup" true (List.mem (Fsm.Send Sigmsg.Setup) actions);
  check "sent connect ack" true (List.mem (Fsm.Send Sigmsg.Connect_ack) actions);
  check "notified" true (List.mem Fsm.Notify_connected actions)

let test_fsm_terminating_happy_path () =
  let state, actions =
    run_events Fsm.Null
      [ Fsm.Recv Sigmsg.Setup; Fsm.Api_accept; Fsm.Recv Sigmsg.Connect_ack ]
  in
  check "active" true (state = Fsm.Active);
  check "proceeding sent" true
    (List.mem (Fsm.Send Sigmsg.Call_proceeding) actions);
  check "setup notified" true (List.mem Fsm.Notify_setup actions)

let test_fsm_release_handshake () =
  let state, actions =
    run_events Fsm.Active [ Fsm.Api_release; Fsm.Recv Sigmsg.Release_complete ]
  in
  check "back to null" true (state = Fsm.Null);
  check "release sent" true (List.mem (Fsm.Send Sigmsg.Release) actions);
  check "released notified" true (List.mem Fsm.Notify_released actions)

let test_fsm_release_collision () =
  let state, actions =
    run_events Fsm.Release_request [ Fsm.Recv Sigmsg.Release ]
  in
  check "collision resolves to null" true (state = Fsm.Null);
  check "completes peer" true
    (List.mem (Fsm.Send Sigmsg.Release_complete) actions)

let test_fsm_protocol_error () =
  match Fsm.step Fsm.Null (Fsm.Recv Sigmsg.Connect) with
  | Fsm.Protocol_error _ -> ()
  | Fsm.Ok_next _ -> Alcotest.fail "expected protocol error"

let test_fsm_status_enquiry () =
  match Fsm.step Fsm.Active (Fsm.Recv Sigmsg.Status_enquiry) with
  | Fsm.Ok_next (Fsm.Active, [ Fsm.Send Sigmsg.Status ]) -> ()
  | _ -> Alcotest.fail "status enquiry answered in place"

let all_events =
  [ Fsm.Api_setup; Fsm.Api_accept; Fsm.Api_release ]
  @ List.map (fun t -> Fsm.Recv t) all_types

let prop_fsm_total =
  (* Any event sequence yields a verdict (never an exception), and states
     stay within the declared set. *)
  QCheck.Test.make ~name:"fsm is total and closed" ~count:300
    QCheck.(list_of_size Gen.(0 -- 30) (int_bound (List.length all_events - 1)))
    (fun choices ->
      let state = ref Fsm.Null in
      List.iter
        (fun i ->
          match Fsm.step !state (List.nth all_events i) with
          | Fsm.Ok_next (s, _) -> state := s
          | Fsm.Protocol_error _ -> ())
        choices;
      true)

(* ---------- SSCOP ---------- *)

let test_sscop_in_order_delivery () =
  let tx = Sscop.create () and rx = Sscop.create () in
  let f1 = Sscop.send tx (Bytes.of_string "one") in
  let f2 = Sscop.send tx (Bytes.of_string "two") in
  (match Sscop.on_receive rx f1 with
  | Sscop.Deliver p -> checks "first" "one" (Bytes.to_string p)
  | _ -> Alcotest.fail "deliver 1");
  (match Sscop.on_receive rx f2 with
  | Sscop.Deliver p -> checks "second" "two" (Bytes.to_string p)
  | _ -> Alcotest.fail "deliver 2");
  checki "rx expects 2" 2 (Sscop.next_expected_seq rx)

let test_sscop_out_of_order () =
  let tx = Sscop.create () and rx = Sscop.create () in
  let _f1 = Sscop.send tx (Bytes.of_string "one") in
  let f2 = Sscop.send tx (Bytes.of_string "two") in
  match Sscop.on_receive rx f2 with
  | Sscop.Out_of_order 1 -> ()
  | _ -> Alcotest.fail "expected out of order"

let test_sscop_ack_trims_buffer () =
  let tx = Sscop.create () and rx = Sscop.create () in
  ignore (Sscop.on_receive rx (Sscop.send tx (Bytes.of_string "a")));
  ignore (Sscop.on_receive rx (Sscop.send tx (Bytes.of_string "b")));
  checki "two unacked" 2 (List.length (Sscop.unacked tx));
  (match Sscop.on_receive tx (Sscop.make_ack rx) with
  | Sscop.Ack_processed 2 -> ()
  | _ -> Alcotest.fail "ack");
  checki "buffer empty" 0 (List.length (Sscop.unacked tx))

let test_sscop_retransmit () =
  let tx = Sscop.create () in
  let f1 = Sscop.send tx (Bytes.of_string "lost") in
  checki "one frame" 1 (Sscop.unacked_count tx);
  let f = Sscop.retransmit tx 0 in
  check "identical to original" true (Bytes.equal f f1);
  check "a fresh copy" true (f != f1);
  (* A fresh receiver accepts the retransmission. *)
  let rx = Sscop.create () in
  match Sscop.on_receive rx f with
  | Sscop.Deliver p -> checks "payload" "lost" (Bytes.to_string p)
  | _ -> Alcotest.fail "retransmit delivery"

let test_sscop_malformed () =
  let rx = Sscop.create () in
  (match Sscop.on_receive rx (Bytes.of_string "xy") with
  | Sscop.Malformed _ -> ()
  | _ -> Alcotest.fail "short frame");
  match Sscop.on_receive rx (Bytes.of_string "Z\x00\x00\x00") with
  | Sscop.Malformed _ -> ()
  | _ -> Alcotest.fail "bad tag"

(* Sequence numbers wrap at 2^24.  A sender that crosses the wrap with
   the receiver acking every 8 frames must still drain its retransmission
   buffer: a plain [seq < ack] comparison stops trimming at the wrap and
   leaves the buffer growing without bound. *)
let test_sscop_ack_across_wrap () =
  let tx = Sscop.create () in
  let ack_upto seq =
    ignore (Sscop.on_receive tx (Sscop.frame ~tag:'A' ~seq Bytes.empty))
  in
  let frames = (1 lsl 24) + 20 in
  for i = 1 to frames do
    ignore (Sscop.send tx Bytes.empty);
    if i land 7 = 0 then ack_upto (Sscop.next_send_seq tx)
  done;
  checki "wrapped" 20 (Sscop.next_send_seq tx);
  checki "acks kept trimming across the wrap" (frames land 7)
    (List.length (Sscop.unacked tx));
  (match Sscop.on_receive tx (Sscop.frame ~tag:'A' ~seq:20 Bytes.empty) with
  | Sscop.Ack_processed 20 -> ()
  | _ -> Alcotest.fail "final ack");
  checki "final cumulative ack empties the buffer" 0
    (List.length (Sscop.unacked tx))

(* A stale cumulative ack (one from before the buffer's head) trims
   nothing. *)
let test_sscop_stale_ack () =
  let tx = Sscop.create () in
  for _ = 1 to 5 do
    ignore (Sscop.send tx (Bytes.of_string "x"))
  done;
  ignore (Sscop.on_receive tx (Sscop.frame ~tag:'A' ~seq:3 Bytes.empty));
  ignore (Sscop.on_receive tx (Sscop.frame ~tag:'A' ~seq:1 Bytes.empty));
  Alcotest.(check (list int))
    "frames 3 and 4 still buffered" [ 3; 4 ]
    (List.map fst (Sscop.unacked tx))

let prop_sscop_pipe =
  QCheck.Test.make ~name:"sscop delivers any in-order stream intact" ~count:200
    QCheck.(list_of_size Gen.(0 -- 20) (QCheck.string_of_size Gen.(0 -- 100)))
    (fun payloads ->
      let tx = Sscop.create () and rx = Sscop.create () in
      List.for_all
        (fun p ->
          match Sscop.on_receive rx (Sscop.send tx (Bytes.of_string p)) with
          | Sscop.Deliver got -> Bytes.to_string got = p
          | _ -> false)
        payloads)

(* The retransmission ring against a list: sends (three in four ops) and
   cumulative acks that leave the newest [k] frames, or, when [k] exceeds
   what is buffered, stale ones that trim nothing.  The ring grows while
   its oldest frame is not in slot 0, and wraps. *)
let prop_sscop_ring =
  QCheck.Test.make ~name:"sscop ring keeps the unacked frames in order" ~count:300
    QCheck.(list_of_size Gen.(0 -- 80) (pair (int_bound 3) (int_bound 20)))
    (fun ops ->
      let tx = Sscop.create () and model = ref [] in
      List.for_all
        (fun (op, k) ->
          let n = List.length !model in
          if op > 0 then begin
            let p = Bytes.of_string (string_of_int k) in
            model := !model @ [ (Sscop.next_send_seq tx, p) ];
            ignore (Sscop.send tx p)
          end
          else begin
            let ack = Sscop.next_send_seq tx - k in
            ignore (Sscop.on_receive tx (Sscop.frame ~tag:'A' ~seq:ack Bytes.empty));
            if k <= n then model := List.filteri (fun i _ -> i >= n - k) !model
          end;
          Sscop.unacked tx = !model
          && Sscop.unacked_count tx = List.length !model
          && List.init (Sscop.unacked_count tx) (Sscop.retransmit tx)
             = List.map (fun (seq, p) -> Sscop.frame ~tag:'D' ~seq p) !model)
        ops)

(* ---------- Sscop_conn (connection-managed SSCOP) ---------- *)

(* The frames and events (kind and reason) in an outbox, which is then
   emptied. *)
let emptied ob =
  let frames = ref [] and events = ref [] in
  for i = Outbox.top ob - 1 downto 0 do
    match Outbox.kind ob i with
    | Outbox.Frame -> frames := Outbox.data ob i :: !frames
    | k -> events := (k, Outbox.reason ob i) :: !events
  done;
  Outbox.drop ob 0;
  (!frames, !events)

(* What one operation adds to a fresh outbox. *)
let emitted f =
  let ob = Outbox.create () in
  f ob;
  emptied ob

(* Feed frames to a connection: the payloads it delivered, the frames it
   sent and the events it raised. *)
let feed conn ~now frames =
  let ob = Outbox.create () in
  let deliv =
    List.filter_map
      (fun f ->
        let n = Bytes.length f in
        if Sscop_conn.input conn ~now ob f 0 n then
          Some (Bytes.sub f Sscop.header_bytes (n - Sscop.header_bytes))
        else None)
      frames
  in
  let out, evs = emptied ob in
  (deliv, out, evs)

(* Assured data: a reserved frame with [payload] written into it. *)
let send conn ~now payload =
  emitted (fun ob ->
      let n = Bytes.length payload in
      let f = Sscop_conn.reserve conn ~now ob n in
      Bytes.blit payload 0 f Sscop.header_bytes n)
  |> fst

let link_up = (Outbox.Link_up, "")

let peer_released = (Outbox.Link_down, "peer released")

let establish () =
  let a = Sscop_conn.create () and b = Sscop_conn.create () in
  let bgn, _ = emitted (Sscop_conn.begin_connection a ~now:0.0) in
  let _, bgak, b_events = feed b ~now:0.0 bgn in
  let _, _, a_events = feed a ~now:0.0 bgak in
  check "responder connected" true (List.mem link_up b_events);
  check "originator connected" true (List.mem link_up a_events);
  check "both ready" true
    (Sscop_conn.state a = Sscop_conn.Ready && Sscop_conn.state b = Sscop_conn.Ready);
  (a, b)

let test_conn_establish () = ignore (establish ())

let test_conn_data_and_ack () =
  let a, b = establish () in
  let frames = send a ~now:0.1 (Bytes.of_string "payload") in
  checki "one unacked" 1 (Sscop_conn.unacked a);
  let deliv, acks, _ = feed b ~now:0.101 frames in
  (match deliv with
  | [ p ] -> checks "delivered" "payload" (Bytes.to_string p)
  | _ -> Alcotest.fail "delivery");
  let _, _, _ = feed a ~now:0.102 acks in
  checki "acked" 0 (Sscop_conn.unacked a);
  check "poll timer disarmed" true (Sscop_conn.next_deadline a = infinity)

let test_conn_send_before_ready () =
  let c = Sscop_conn.create () in
  match send c ~now:0.0 (Bytes.of_string "x") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "send before ready must fail"

let test_conn_lost_data_recovered_by_poll () =
  let a, b = establish () in
  ignore (send a ~now:0.0 (Bytes.of_string "lost") (* frame vanishes on the wire *));
  (* Poll timer fires: retransmission + POLL. *)
  let now = Sscop_conn.next_deadline a in
  let t, _ = emitted (Sscop_conn.tick a ~now) in
  checki "retransmit + poll" 2 (List.length t);
  let deliv, replies, _ = feed b ~now t in
  (match deliv with
  | [ p ] -> checks "recovered" "lost" (Bytes.to_string p)
  | _ -> Alcotest.fail "recovery");
  (* b answers with ACK (for the SD) and STAT (for the POLL). *)
  let _, _, _ = feed a ~now replies in
  checki "acked after recovery" 0 (Sscop_conn.unacked a)

let test_conn_reset_after_budget () =
  let a, b = establish () in
  ignore b;
  ignore (send a ~now:0.0 (Bytes.of_string "void"));
  let rec starve now n =
    if n > 20 then Alcotest.fail "never reset"
    else begin
      let d = Sscop_conn.next_deadline a in
      if d = infinity then Alcotest.fail "no deadline while unacked";
      let _, events = emitted (Sscop_conn.tick a ~now:d) in
      if List.exists (fun (k, _) -> k = Outbox.Link_down) events then now
      else starve d (n + 1)
    end
  in
  ignore (starve 0.0 0);
  check "back to idle" true (Sscop_conn.state a = Sscop_conn.Idle)

let test_conn_release_handshake () =
  let a, b = establish () in
  let end_, _ = emitted (Sscop_conn.release a ~now:1.0) in
  let _, endak, b_events = feed b ~now:1.0 end_ in
  check "peer released" true (List.mem peer_released b_events);
  let _, _, a_events = feed a ~now:1.0 endak in
  check "originator released" true (List.mem peer_released a_events);
  check "both idle" true
    (Sscop_conn.state a = Sscop_conn.Idle && Sscop_conn.state b = Sscop_conn.Idle)

let test_conn_bgn_retransmission () =
  let a = Sscop_conn.create () in
  let bgn, _ = emitted (Sscop_conn.begin_connection a ~now:0.0) in
  checki "BGN sent" 1 (List.length bgn);
  (* No answer: ticking at the deadline re-sends BGN. *)
  let d = Sscop_conn.next_deadline a in
  let again, _ = emitted (Sscop_conn.tick a ~now:d) in
  checki "BGN retransmitted" 1 (List.length again);
  check "still outgoing" true (Sscop_conn.state a = Sscop_conn.Outgoing)

let test_conn_duplicate_bgn_reacked () =
  let a, b = establish () in
  ignore a;
  (* A duplicate BGN arriving at the responder must be re-acknowledged,
     not treated as an error. *)
  let dup = Ldlp_sigproto.Sscop.frame ~tag:'B' ~seq:0 Bytes.empty in
  let _, out, evs = feed b ~now:2.0 [ dup ] in
  checki "BGAK re-sent" 1 (List.length out);
  checki "no duplicate Connected event" 0 (List.length evs)

let prop_conn_lossy_channel =
  (* Over a channel that drops a random subset of frames, timer-driven
     recovery must still deliver the full stream in order. *)
  QCheck.Test.make ~name:"sscop_conn recovers any loss pattern" ~count:60
    QCheck.(pair (list_of_size Gen.(1 -- 6) (QCheck.string_of_size Gen.(1 -- 20))) (int_bound 1000))
    (fun (payloads, seed) ->
      let rng = Ldlp_sim.Rng.create ~seed in
      let a, b = establish () in
      let delivered = ref [] in
      let now = ref 0.0 in
      (* Each wire crossing drops frames with probability 0.3 (but never
         the same frame forever thanks to retransmission); acks may be
         dropped too. *)
      let cross frames =
        List.iter
          (fun f ->
            if not (Ldlp_sim.Rng.bool rng 0.3) then begin
              let deliv, replies, _ = feed b ~now:!now [ f ] in
              delivered := !delivered @ deliv;
              List.iter
                (fun reply ->
                  if not (Ldlp_sim.Rng.bool rng 0.3) then
                    ignore (feed a ~now:!now [ reply ]))
                replies
            end)
          frames
      in
      (* Send everything at once. *)
      List.iter (fun p -> cross (send a ~now:!now (Bytes.of_string p))) payloads;
      (* Drive recovery; the deterministic drop pattern ends after a few
         rounds because each round redraws coins. *)
      let rounds = ref 0 in
      while Sscop_conn.unacked a > 0 && !rounds < 200 do
        incr rounds;
        let d = Sscop_conn.next_deadline a in
        if d < infinity then begin
          now := d;
          cross (fst (emitted (Sscop_conn.tick a ~now:!now)))
        end
      done;
      (* Either everything was delivered in order, or the connection was
         legitimately reset after exhausting its budget (rare with p=0.3
         but possible); both are acceptable machine behaviours, but a
         reset must leave the machine Idle. *)
      let got = List.map Bytes.to_string !delivered in
      if Sscop_conn.state a = Sscop_conn.Ready then
        got = payloads && Sscop_conn.unacked a = 0
      else Sscop_conn.state a = Sscop_conn.Idle)

(* ---------- Switch ---------- *)

let make_switch () =
  Switch.create ~routes:[ ("b:", 2); ("c:", 3) ] ~local_port:0 ()

let setup ~call_ref addr =
  Sigmsg.v ~call_ref Sigmsg.Setup [ Ie.called_party addr; Ie.qos 0 ]

let test_switch_routes_setup () =
  let sw = make_switch () in
  match Switch.handle sw ~port:1 (setup ~call_ref:7 "b:42") with
  | [ (p1, m1); (p2, m2) ] ->
    (* CALL_PROCEEDING back to the caller, SETUP onward to port 2. *)
    checki "proceeding port" 1 p1;
    check "proceeding type" true (m1.Sigmsg.typ = Sigmsg.Call_proceeding);
    checki "setup out port" 2 p2;
    check "setup type" true (m2.Sigmsg.typ = Sigmsg.Setup);
    check "caller's elements forwarded, then the allocated VPI/VCI (0/32)" true
      (m2.Sigmsg.ies
      = [ Ie.called_party "b:42"; Ie.qos 0; { Ie.id = 0x5A; data = "\x00\x00\x20" } ]);
    checki "one active call" 1 (Switch.active_calls sw)
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l)

let connect_call sw ~in_port ~call_ref addr =
  let out =
    match Switch.handle sw ~port:in_port (setup ~call_ref addr) with
    | [ _; (p, m) ] -> (p, m)
    | _ -> Alcotest.fail "setup routing"
  in
  let out_port, out_msg = out in
  (* Callee answers CONNECT. *)
  let replies =
    Switch.handle sw ~port:out_port
      (Sigmsg.v ~from_originator:false ~call_ref:out_msg.Sigmsg.call_ref
         Sigmsg.Connect [])
  in
  (* Switch must CONNECT_ACK the callee and CONNECT the caller. *)
  check "connect ack downstream" true
    (List.exists
       (fun (p, m) -> p = out_port && m.Sigmsg.typ = Sigmsg.Connect_ack)
       replies);
  check "connect upstream" true
    (List.exists
       (fun (p, m) -> p = in_port && m.Sigmsg.typ = Sigmsg.Connect)
       replies);
  (* Caller acks. *)
  ignore
    (Switch.handle sw ~port:in_port
       (Sigmsg.v ~call_ref Sigmsg.Connect_ack []));
  (out_port, out_msg.Sigmsg.call_ref)

let test_switch_full_call_setup () =
  let sw = make_switch () in
  let _ = connect_call sw ~in_port:1 ~call_ref:7 "b:42" in
  let s = Switch.stats sw in
  checki "routed" 1 s.Switch.setups_routed;
  checki "connected" 1 s.Switch.calls_connected;
  checki "errors" 0 s.Switch.protocol_errors;
  check "vci recorded" true (Switch.vci_of_call sw ~call_ref:7 <> None)

let test_switch_release_cleans_up () =
  let sw = make_switch () in
  let out_port, out_ref = connect_call sw ~in_port:1 ~call_ref:7 "b:42" in
  (* Caller hangs up: switch must RELEASE downstream and complete caller. *)
  let replies =
    Switch.handle sw ~port:1 (Sigmsg.v ~call_ref:7 Sigmsg.Release [])
  in
  check "release forwarded" true
    (List.exists
       (fun (p, m) -> p = out_port && m.Sigmsg.typ = Sigmsg.Release)
       replies);
  (* Callee completes. *)
  ignore
    (Switch.handle sw ~port:out_port
       (Sigmsg.v ~from_originator:false ~call_ref:out_ref
          Sigmsg.Release_complete []));
  checki "table empty" 0 (Switch.active_calls sw);
  checki "released" 1 (Switch.stats sw).Switch.calls_released

(* A hairpin call: routed back out of its own ingress port, where the
   switch's first outgoing reference (1) equals the caller's.  The
   call-reference flag keeps the two legs apart, so the whole lifecycle
   runs without a protocol error. *)
let test_switch_hairpin_call () =
  let sw = Switch.create ~routes:[ ("+1", 1) ] ~local_port:0 () in
  (* Each reply as "port TYPE ref/flag", the flag being from_originator. *)
  let expect what want replies =
    Alcotest.(check (list string))
      what want
      (List.map
         (fun (p, m) ->
           Printf.sprintf "%d %s %d/%b" p
             (Sigmsg.msg_type_name m.Sigmsg.typ)
             m.Sigmsg.call_ref m.Sigmsg.from_originator)
         replies)
  in
  expect "proceeding to the caller, SETUP to the callee"
    [ "1 CALL_PROCEEDING 1/false"; "1 SETUP 1/true" ]
    (Switch.handle sw ~port:1 (setup ~call_ref:1 "+15551234"));
  checki "both legs held" 1 (Switch.active_calls sw);
  expect "callee's CONNECT acked, caller offered CONNECT"
    [ "1 CONNECT_ACK 1/true"; "1 CONNECT 1/false" ]
    (Switch.handle sw ~port:1
       (Sigmsg.v ~from_originator:false ~call_ref:1 Sigmsg.Connect []));
  expect "caller's CONNECT_ACK is silent" []
    (Switch.handle sw ~port:1 (Sigmsg.v ~call_ref:1 Sigmsg.Connect_ack []));
  checki "connected" 1 (Switch.stats sw).Switch.calls_connected;
  expect "caller's RELEASE completed and passed on"
    [ "1 RELEASE_COMPLETE 1/false"; "1 RELEASE 1/true" ]
    (Switch.handle sw ~port:1 (Sigmsg.v ~call_ref:1 Sigmsg.Release []));
  expect "callee's RELEASE_COMPLETE is silent" []
    (Switch.handle sw ~port:1
       (Sigmsg.v ~from_originator:false ~call_ref:1 Sigmsg.Release_complete []));
  let s = Switch.stats sw in
  checki "table empty" 0 (Switch.active_calls sw);
  checki "released" 1 s.Switch.calls_released;
  checki "no protocol errors" 0 s.Switch.protocol_errors

let test_switch_missing_called_party () =
  let sw = make_switch () in
  match Switch.handle sw ~port:1 (Sigmsg.v ~call_ref:9 Sigmsg.Setup []) with
  | [ (1, m) ] ->
    check "release complete" true (m.Sigmsg.typ = Sigmsg.Release_complete);
    checki "rejected" 1 (Switch.stats sw).Switch.rejected
  | _ -> Alcotest.fail "expected rejection"

let test_switch_unknown_callref () =
  let sw = make_switch () in
  (match Switch.handle sw ~port:1 (Sigmsg.v ~call_ref:99 Sigmsg.Connect []) with
  | [ (1, m) ] -> check "release complete" true (m.Sigmsg.typ = Sigmsg.Release_complete)
  | _ -> Alcotest.fail "expected release complete");
  checki "counted" 1 (Switch.stats sw).Switch.protocol_errors;
  (* A SETUP flagged as coming from the destination side has no call to
     belong to either. *)
  (match
     Switch.handle sw ~port:1
       (Sigmsg.v ~from_originator:false ~call_ref:97 Sigmsg.Setup
          [ Ie.called_party "b:1" ])
   with
  | [ (1, m) ] -> check "release complete" true (m.Sigmsg.typ = Sigmsg.Release_complete)
  | _ -> Alcotest.fail "expected release complete");
  checki "counted too" 2 (Switch.stats sw).Switch.protocol_errors;
  checki "no call created" 0 (Switch.active_calls sw);
  (* Stray RELEASE_COMPLETE is silently ignored. *)
  checki "stray ignored" 0
    (List.length
       (Switch.handle sw ~port:1 (Sigmsg.v ~call_ref:98 Sigmsg.Release_complete [])))

let test_switch_many_calls () =
  let sw = make_switch () in
  for i = 1 to 200 do
    let _ = connect_call sw ~in_port:1 ~call_ref:i "b:x" in
    ()
  done;
  checki "200 connected" 200 (Switch.stats sw).Switch.calls_connected;
  checki "200 active" 200 (Switch.active_calls sw)

(* A call is a row of int columns and two slots of a flat table, so with
   12,000 calls held a lifecycle leaves nothing in the minor heap that
   outlives it: promoted words come only from replies that happen to be
   live when a minor collection runs.  A record and two table cells per
   call promote ~15 words per lifecycle. *)
let test_switch_held_calls_promote_nothing () =
  let held = 12_000 and lifecycles = 20_000 in
  let sw = Switch.create ~auto_answer:true ~routes:[] ~local_port:0 () in
  let set_up call_ref =
    ignore
      (Switch.handle sw ~port:1
         (Sigmsg.v ~call_ref Sigmsg.Setup [ Ie.called_party "x" ]));
    ignore (Switch.handle sw ~port:1 (Sigmsg.v ~call_ref Sigmsg.Connect_ack []))
  in
  for k = 1 to held do
    set_up k
  done;
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  for k = held + 1 to held + lifecycles do
    set_up k;
    ignore
      (Switch.handle sw ~port:1 (Sigmsg.v ~call_ref:(k - held) Sigmsg.Release []))
  done;
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. p0 in
  checki "calls held" held (Switch.active_calls sw);
  checki "every lifecycle released" lifecycles (Switch.stats sw).Switch.calls_released;
  check
    (Printf.sprintf "%.0f words promoted over %d lifecycles" promoted lifecycles)
    true
    (promoted < float_of_int lifecycles)

(* Once its table, rows and outbox have grown, the switch runs a call's
   SETUP, CONNECT_ACK and RELEASE where they lie and writes its replies
   into the caller's buffer without allocating: no decoded message, no
   element list, no reply record.  The SETUP is routed by comparing its
   called-party bytes with a route prefix in place.  The tolerance covers
   only the boxed floats the two [Gc.minor_words] reads produce. *)
let test_switch_input_allocates_nothing () =
  let sw = Switch.create ~auto_answer:true ~routes:[ ("+1", 0) ] ~local_port:0 () in
  let encode typ ies = Sigmsg.encode (Sigmsg.v ~call_ref:5 typ ies) in
  let setup = encode Sigmsg.Setup [ Ie.called_party "+15551234"; Ie.qos 1 ]
  and connect_ack = encode Sigmsg.Connect_ack []
  and release = encode Sigmsg.Release [] in
  let out = Bytes.create 64 and written = ref 0 in
  let run msg =
    for i = 0 to Switch.input sw ~port:1 msg 0 - 1 do
      Switch.write_reply sw i out 0;
      written := !written + Switch.reply_length sw i
    done
  in
  let lifecycles n =
    for _ = 1 to n do
      run setup;
      run connect_ack;
      run release
    done
  in
  lifecycles 10;
  let w0 = Gc.minor_words () in
  lifecycles 10_000;
  let dw = Gc.minor_words () -. w0 in
  let s = Switch.stats sw in
  checki "every call connected" 10_010 s.Switch.calls_connected;
  checki "every call released" 10_010 s.Switch.calls_released;
  checki "no protocol errors" 0 s.Switch.protocol_errors;
  (* CALL_PROCEEDING (8 bytes), CONNECT with its VPI/VCI (14) and
     RELEASE_COMPLETE (8) per call. *)
  checki "replies written" (10_010 * 30) !written;
  if dw > 16.0 then
    Alcotest.failf "10,000 lifecycles through input and write_reply allocated %.0f words" dw

let prop_switch_random_valid_scripts =
  (* Drive the switch with randomly interleaved *valid* call scripts
     (setup, connect-ack, release at staggered positions across many call
     refs): no protocol errors, and the table is empty once every script
     has completed. *)
  QCheck.Test.make ~name:"switch survives interleaved call scripts" ~count:100
    QCheck.(pair (int_range 1 8) (int_bound 10000))
    (fun (ncalls, seed) ->
      let rng = Ldlp_sim.Rng.create ~seed in
      let sw = Switch.create ~auto_answer:true ~routes:[] ~local_port:0 () in
      (* Each call is the 3-message script; interleave by repeatedly
         picking a random call that still has messages left. *)
      let scripts =
        Array.init ncalls (fun i ->
            ref
              [
                Sigmsg.v ~call_ref:(i + 1) Sigmsg.Setup [ Ie.called_party "x" ];
                Sigmsg.v ~call_ref:(i + 1) Sigmsg.Connect_ack [];
                Sigmsg.v ~call_ref:(i + 1) Sigmsg.Release [];
              ])
      in
      let remaining () =
        Array.exists (fun s -> !s <> []) scripts
      in
      while remaining () do
        let i = Ldlp_sim.Rng.int rng ncalls in
        match !(scripts.(i)) with
        | [] -> ()
        | m :: rest ->
          scripts.(i) := rest;
          ignore (Switch.handle sw ~port:1 m)
      done;
      let s = Switch.stats sw in
      s.Switch.protocol_errors = 0
      && s.Switch.calls_connected = ncalls
      && s.Switch.calls_released = ncalls
      && Switch.active_calls sw = 0)

(* ---------- Layers under the LDLP engine ---------- *)

let pool = Ldlp_buf.Pool.create ()

let run_stack ~discipline frames =
  let sw = make_switch () in
  let st = Layers.stack ~pool ~switch:sw () in
  let downs = ref [] in
  let sched =
    Ldlp_core.Engine.rx_chain ~discipline ~layers:st.Layers.layers
      ~down:(fun m -> downs := m.Ldlp_core.Msg.payload :: !downs)
      ()
  in
  List.iter
    (fun (port, payload) ->
      let m = Layers.frame ~pool ~port payload in
      Ldlp_core.Engine.inject sched ~node:0
        (Ldlp_core.Msg.make ~size:(Ldlp_buf.Mbuf.length m) (Layers.Raw m)))
    frames;
  Ldlp_core.Engine.run sched;
  (sw, st, List.rev !downs, Ldlp_core.Engine.stats sched)

(* Frames from one caller share a transmit-side SSCOP so sequence numbers
   advance as the stack's receive side expects. *)
let setup_frames ~port ~count addr =
  let tx = Sscop.create () in
  List.init count (fun i ->
      Layers.encode_tx ~sscop_for:(fun _ -> tx) ~port
        (setup ~call_ref:(i + 1) addr))

let test_layers_end_to_end () =
  let frame = List.hd (setup_frames ~port:1 ~count:1 "b:1") in
  let sw, _st, downs, stats =
    run_stack ~discipline:Ldlp_core.Engine.Conventional [ frame ]
  in
  checki "one call" 1 (Switch.active_calls sw);
  checki "setup routed" 1 (Switch.stats sw).Switch.setups_routed;
  (* Downward: 1 sscop ack + CALL_PROCEEDING + forwarded SETUP. *)
  checki "three transmissions" 3 (List.length downs);
  checki "no drops" 1 stats.Ldlp_core.Engine.injected

let test_layers_sscop_for_bad_port () =
  let st = Layers.stack ~pool ~switch:(make_switch ()) () in
  List.iter
    (fun port ->
      Alcotest.check_raises
        (Printf.sprintf "port %d rejected" port)
        (Invalid_argument "Layers.sscop_for: bad port")
        (fun () -> ignore (st.Layers.sscop_for port)))
    [ 256; -1 ];
  check "one state per port" true (st.Layers.sscop_for 255 == st.Layers.sscop_for 255);
  check "ports apart" true (st.Layers.sscop_for 0 != st.Layers.sscop_for 255)

let test_layers_ldlp_equals_conventional () =
  let frames = setup_frames ~port:1 ~count:20 "b:1" in
  let sw1, _, downs1, _ = run_stack ~discipline:Ldlp_core.Engine.Conventional frames in
  let sw2, _, downs2, _ =
    run_stack ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default) frames
  in
  checki "twenty calls either way" 20 (Switch.active_calls sw1);
  checki "same calls" (Switch.active_calls sw1) (Switch.active_calls sw2);
  checki "same routed" (Switch.stats sw1).Switch.setups_routed
    (Switch.stats sw2).Switch.setups_routed;
  checki "same transmissions" (List.length downs1) (List.length downs2)

(* Wire-byte differential: random scripts of link frames through the
   four-layer stack must send down exactly the frames an independent
   reference produces from a second switch, [Layers.encode_tx] and
   [Sscop.make_ack].  Frames arrive on port 1 (the caller) and port 2
   (the callee of calls routed to "b:").  Besides in-sequence Q.93B
   messages, a script holds the caller's cumulative acks, data frames
   ahead of sequence, in-sequence frames whose payload does not decode,
   short frames, unknown tags and empty link frames. *)
type ev =
  | Msg of int * Sigmsg.msg_type * int  (** port, type, call ref *)
  | Peer_ack of int * int  (** port, acked sequence number *)
  | Gap of int * int  (** port, distance ahead of sequence *)
  | Garbage of int  (** port *)
  | Short of int
  | Bad_tag of int
  | Empty

let show_ev = function
  | Msg (p, t, r) -> Printf.sprintf "%d:%s/%d" p (Sigmsg.msg_type_name t) r
  | Peer_ack (p, s) -> Printf.sprintf "%d:ack%d" p s
  | Gap (p, d) -> Printf.sprintf "%d:gap+%d" p d
  | Garbage p -> Printf.sprintf "%d:garbage" p
  | Short p -> Printf.sprintf "%d:short" p
  | Bad_tag p -> Printf.sprintf "%d:bad-tag" p
  | Empty -> "empty"

let gen_ev =
  let open QCheck.Gen in
  let port = oneofl [ 1; 1; 2 ] in
  frequency
    [
      ( 10,
        port >>= fun p ->
        map2
          (fun t r -> Msg (p, t, r))
          (if p = 1 then
             oneofl Sigmsg.[ Setup; Setup; Connect_ack; Release; Release_complete ]
           else oneofl Sigmsg.[ Connect; Release; Release_complete ])
          (1 -- 4) );
      (3, map2 (fun p s -> Peer_ack (p, s)) port (0 -- 12));
      (1, map2 (fun p d -> Gap (p, d)) port (1 -- 3));
      (1, map (fun p -> Garbage p) port);
      (1, map (fun p -> Short p) port);
      (1, map (fun p -> Bad_tag p) port);
      (1, return Empty);
    ]

(* The script as link frames (port byte + SSCOP frame), each port's data
   frames numbered by its own caller-side transmitter. *)
let script_frames evs =
  let txs = [| Sscop.create (); Sscop.create (); Sscop.create () |] in
  let link p f = Bytes.cat (Bytes.make 1 (Char.chr p)) f in
  List.map
    (function
      | Msg (p, typ, call_ref) ->
        let ies =
          if typ = Sigmsg.Setup then
            [ Ie.called_party (if call_ref land 1 = 0 then "b:9" else "local") ]
          else []
        in
        link p
          (Sscop.send txs.(p)
             (Sigmsg.encode (Sigmsg.v ~from_originator:(p = 1) ~call_ref typ ies)))
      | Peer_ack (p, seq) -> link p (Sscop.frame ~tag:'A' ~seq Bytes.empty)
      | Gap (p, d) ->
        link p
          (Sscop.frame ~tag:'D' ~seq:(Sscop.next_send_seq txs.(p) + d)
             (Sigmsg.encode (Sigmsg.v ~call_ref:1 Sigmsg.Release [])))
      | Garbage p -> link p (Sscop.send txs.(p) (Bytes.of_string "\x09\x03garbage"))
      | Short p -> link p (Bytes.of_string "D\x00")
      | Bad_tag p -> link p (Sscop.frame ~tag:'Z' ~seq:0 Bytes.empty)
      | Empty -> Bytes.empty)
    evs

let diff_switch () = Switch.create ~auto_answer:true ~routes:[ ("b:", 2) ] ~local_port:0 ()

let per_port () =
  let t = Hashtbl.create 4 in
  fun port ->
    match Hashtbl.find_opt t port with
    | Some s -> s
    | None ->
      let s = Sscop.create () in
      Hashtbl.add t port s;
      s

(* Conventional order: a delivered frame's replies leave before its ack,
   because the sscop layer's [Up] runs the layers above it first. *)
let reference frames =
  let sw = diff_switch () and sscop_for = per_port () in
  let down =
    List.concat_map
      (fun raw ->
        if Bytes.length raw = 0 then []
        else
          let port = Char.code (Bytes.get raw 0) in
          let s = sscop_for port in
          match Sscop.on_receive s (Bytes.sub raw 1 (Bytes.length raw - 1)) with
          | Sscop.Deliver payload ->
            let ack = (port, Sscop.make_ack s) in
            let replies =
              match Sigmsg.decode payload with
              | Ok m ->
                List.map
                  (fun (p, r) -> Layers.encode_tx ~sscop_for ~port:p r)
                  (Switch.handle sw ~port m)
              | Error _ -> []
            in
            replies @ [ ack ]
          | _ -> [])
      frames
  in
  (down, sw, sscop_for)

let through_stack ~discipline frames =
  let pool = Ldlp_buf.Pool.create () in
  let st = Layers.stack ~pool ~switch:(diff_switch ()) () in
  let down = ref [] in
  let eng =
    Ldlp_core.Engine.rx_chain ~discipline ~layers:st.Layers.layers
      ~down:(fun m ->
        match m.Ldlp_core.Msg.payload with
        | Layers.Sdu (port, f) -> down := (port, f) :: !down
        | _ -> Alcotest.fail "non-frame sent down")
      ()
  in
  List.iter
    (fun raw ->
      let m = Ldlp_buf.Mbuf.of_bytes pool raw in
      Ldlp_core.Engine.inject eng ~node:0
        (Ldlp_core.Msg.make ~size:(Bytes.length raw) (Layers.Raw m)))
    frames;
  Ldlp_core.Engine.run eng;
  let ps = Ldlp_buf.Pool.stats pool in
  (List.rev !down, st, ps.Ldlp_buf.Pool.small_in_use + ps.Ldlp_buf.Pool.cluster_in_use)

let prop_layers_wire_bytes =
  QCheck.Test.make ~name:"layers send down the reference's bytes" ~count:200
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun evs -> String.concat " " (List.map show_ev evs))
       QCheck.Gen.(list_size (0 -- 40) gen_ev))
    (fun evs ->
      let frames = script_frames evs in
      let want, ref_sw, ref_sscop = reference frames in
      let acks = List.partition (fun (_, f) -> Bytes.get f 0 = 'A') in
      List.for_all
        (fun discipline ->
          let got, st, leaked = through_stack ~discipline frames in
          let same f port = f (st.Layers.sscop_for port) = f (ref_sscop port) in
          (match discipline with
          | Ldlp_core.Engine.Conventional ->
            got = want && same Sscop.unacked 1 && same Sscop.unacked 2
          | Ldlp_core.Engine.Ldlp _ ->
            (* A batch can run a peer's ack through the sscop layer before
               the call layer sends the frames it covers, so only the
               reply and ack streams, not the retransmission buffers,
               must match. *)
            acks got = acks want)
          && leaked = 0
          && Switch.stats st.Layers.switch = Switch.stats ref_sw
          && same Sscop.next_expected_seq 1
          && same Sscop.next_expected_seq 2)
        [
          Ldlp_core.Engine.Conventional;
          Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default;
        ])

let suite =
  [
    Alcotest.test_case "ie constructors" `Quick test_ie_constructors;
    Alcotest.test_case "ie find" `Quick test_ie_find;
    Alcotest.test_case "ie list roundtrip" `Quick test_ie_list_roundtrip;
    Alcotest.test_case "ie truncated" `Quick test_ie_truncated;
    Alcotest.test_case "ie bad length" `Quick test_ie_bad_length;
    QCheck_alcotest.to_alcotest prop_ie_roundtrip;
    Alcotest.test_case "msg type codes" `Quick test_msg_type_codes;
    Alcotest.test_case "sigmsg roundtrip" `Quick test_sigmsg_roundtrip;
    Alcotest.test_case "sigmsg direction" `Quick test_sigmsg_direction_flag;
    Alcotest.test_case "sigmsg errors" `Quick test_sigmsg_errors;
    Alcotest.test_case "sigmsg call ref range" `Quick test_sigmsg_call_ref_range;
    QCheck_alcotest.to_alcotest prop_sigmsg_roundtrip;
    QCheck_alcotest.to_alcotest prop_cursor_codec_total;
    Alcotest.test_case "cursor battery reaches both verdicts" `Quick
      test_cursor_battery_reaches_both_verdicts;
    Alcotest.test_case "fsm originating" `Quick test_fsm_originating_happy_path;
    Alcotest.test_case "fsm terminating" `Quick test_fsm_terminating_happy_path;
    Alcotest.test_case "fsm release" `Quick test_fsm_release_handshake;
    Alcotest.test_case "fsm release collision" `Quick test_fsm_release_collision;
    Alcotest.test_case "fsm protocol error" `Quick test_fsm_protocol_error;
    Alcotest.test_case "fsm status enquiry" `Quick test_fsm_status_enquiry;
    QCheck_alcotest.to_alcotest prop_fsm_total;
    Alcotest.test_case "sscop in order" `Quick test_sscop_in_order_delivery;
    Alcotest.test_case "sscop out of order" `Quick test_sscop_out_of_order;
    Alcotest.test_case "sscop ack trims" `Quick test_sscop_ack_trims_buffer;
    Alcotest.test_case "sscop retransmit" `Quick test_sscop_retransmit;
    Alcotest.test_case "sscop malformed" `Quick test_sscop_malformed;
    Alcotest.test_case "sscop ack across the 2^24 wrap" `Quick test_sscop_ack_across_wrap;
    Alcotest.test_case "sscop stale ack" `Quick test_sscop_stale_ack;
    QCheck_alcotest.to_alcotest prop_sscop_pipe;
    QCheck_alcotest.to_alcotest prop_sscop_ring;
    Alcotest.test_case "conn establish" `Quick test_conn_establish;
    Alcotest.test_case "conn data+ack" `Quick test_conn_data_and_ack;
    Alcotest.test_case "conn send before ready" `Quick test_conn_send_before_ready;
    Alcotest.test_case "conn poll recovery" `Quick test_conn_lost_data_recovered_by_poll;
    Alcotest.test_case "conn reset after budget" `Quick test_conn_reset_after_budget;
    Alcotest.test_case "conn release" `Quick test_conn_release_handshake;
    Alcotest.test_case "conn bgn retransmission" `Quick test_conn_bgn_retransmission;
    Alcotest.test_case "conn duplicate bgn" `Quick test_conn_duplicate_bgn_reacked;
    QCheck_alcotest.to_alcotest prop_conn_lossy_channel;
    Alcotest.test_case "switch routes setup" `Quick test_switch_routes_setup;
    Alcotest.test_case "switch full call" `Quick test_switch_full_call_setup;
    Alcotest.test_case "switch release" `Quick test_switch_release_cleans_up;
    Alcotest.test_case "switch hairpin call" `Quick test_switch_hairpin_call;
    Alcotest.test_case "switch missing IE" `Quick test_switch_missing_called_party;
    Alcotest.test_case "switch unknown callref" `Quick test_switch_unknown_callref;
    Alcotest.test_case "switch many calls" `Quick test_switch_many_calls;
    Alcotest.test_case "switch held calls promote nothing" `Quick
      test_switch_held_calls_promote_nothing;
    Alcotest.test_case "switch input allocates nothing" `Quick
      test_switch_input_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_switch_random_valid_scripts;
    Alcotest.test_case "layers end to end" `Quick test_layers_end_to_end;
    Alcotest.test_case "layers sscop_for rejects ports outside a byte" `Quick
      test_layers_sscop_for_bad_port;
    QCheck_alcotest.to_alcotest prop_layers_wire_bytes;
    Alcotest.test_case "layers ldlp = conventional" `Quick
      test_layers_ldlp_equals_conventional;
  ]
