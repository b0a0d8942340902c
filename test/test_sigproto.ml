(* Tests for the Q.93B-like signalling substrate: IEs, message codec, call
   FSM, SSCOP-lite, the switch, and the LDLP layer adapters. *)

open Ldlp_sigproto

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ---------- IEs ---------- *)

let test_ie_constructors () =
  let ie = Ie.vpc_vci ~vpi:3 ~vci:1234 in
  (match Ie.get_vpc_vci ie with
  | Some (3, 1234) -> ()
  | _ -> Alcotest.fail "vpc/vci roundtrip");
  (match Ie.get_u8 (Ie.qos 4) with
  | Some 4 -> ()
  | _ -> Alcotest.fail "qos");
  checks "called party" "host-b" (Ie.called_party "host-b").Ie.data

let test_ie_find () =
  let ies = [ Ie.qos 1; Ie.called_party "x" ] in
  check "found" true (Ie.find Ie.id_called_party ies <> None);
  check "absent" true (Ie.find Ie.id_cause ies = None)

let test_ie_list_roundtrip () =
  let ies = [ Ie.called_party "addr-1"; Ie.qos 2; Ie.vpc_vci ~vpi:0 ~vci:77 ] in
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

let test_msg_type_codes () =
  List.iter
    (fun t ->
      match Sigmsg.msg_type_of_code (Sigmsg.msg_type_code t) with
      | Some t' -> check "code roundtrip" true (t = t')
      | None -> Alcotest.fail "code roundtrip")
    all_types;
  check "unknown code" true (Sigmsg.msg_type_of_code 0xEE = None)

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
  let frames = Sscop.retransmit tx in
  checki "one frame" 1 (List.length frames);
  check "identical to original" true (Bytes.equal (List.hd frames) f1);
  (* A fresh receiver accepts the retransmission. *)
  let rx = Sscop.create () in
  match Sscop.on_receive rx (List.hd frames) with
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

(* ---------- Sscop_conn (connection-managed SSCOP) ---------- *)

let feed conn ~now frames =
  List.fold_left
    (fun (deliv, out, evs) f ->
      let o = Sscop_conn.on_receive conn ~now f in
      ( deliv @ o.Sscop_conn.deliveries,
        out @ o.Sscop_conn.to_send,
        evs @ o.Sscop_conn.events ))
    ([], [], []) frames

let establish () =
  let a = Sscop_conn.create () and b = Sscop_conn.create () in
  let o = Sscop_conn.begin_connection a ~now:0.0 in
  let _, bgak, b_events = feed b ~now:0.0 o.Sscop_conn.to_send in
  let _, _, a_events = feed a ~now:0.0 bgak in
  check "responder connected" true (List.mem Sscop_conn.Connected b_events);
  check "originator connected" true (List.mem Sscop_conn.Connected a_events);
  check "both ready" true
    (Sscop_conn.state a = Sscop_conn.Ready && Sscop_conn.state b = Sscop_conn.Ready);
  (a, b)

let test_conn_establish () = ignore (establish ())

let test_conn_data_and_ack () =
  let a, b = establish () in
  match Sscop_conn.send a ~now:0.1 (Bytes.of_string "payload") with
  | Error `Not_ready -> Alcotest.fail "send refused"
  | Ok o ->
    checki "one unacked" 1 (Sscop_conn.unacked a);
    let deliv, acks, _ = feed b ~now:0.101 o.Sscop_conn.to_send in
    (match deliv with
    | [ p ] -> checks "delivered" "payload" (Bytes.to_string p)
    | _ -> Alcotest.fail "delivery");
    let _, _, _ = feed a ~now:0.102 acks in
    checki "acked" 0 (Sscop_conn.unacked a);
    check "poll timer disarmed" true (Sscop_conn.next_deadline a = None)

let test_conn_send_before_ready () =
  let c = Sscop_conn.create () in
  match Sscop_conn.send c ~now:0.0 (Bytes.of_string "x") with
  | Error `Not_ready -> ()
  | Ok _ -> Alcotest.fail "send before ready must fail"

let test_conn_lost_data_recovered_by_poll () =
  let a, b = establish () in
  let o = Result.get_ok (Sscop_conn.send a ~now:0.0 (Bytes.of_string "lost")) in
  ignore o.Sscop_conn.to_send (* frame vanishes on the wire *);
  (* Poll timer fires: retransmission + POLL. *)
  let now = Option.get (Sscop_conn.next_deadline a) in
  let t = Sscop_conn.tick a ~now in
  checki "retransmit + poll" 2 (List.length t.Sscop_conn.to_send);
  let deliv, replies, _ = feed b ~now t.Sscop_conn.to_send in
  (match deliv with
  | [ p ] -> checks "recovered" "lost" (Bytes.to_string p)
  | _ -> Alcotest.fail "recovery");
  (* b answers with ACK (for the SD) and STAT (for the POLL). *)
  let _, _, _ = feed a ~now replies in
  checki "acked after recovery" 0 (Sscop_conn.unacked a)

let test_conn_reset_after_budget () =
  let a, b = establish () in
  ignore b;
  ignore (Result.get_ok (Sscop_conn.send a ~now:0.0 (Bytes.of_string "void")));
  let rec starve now n =
    if n > 20 then Alcotest.fail "never reset"
    else begin
      match Sscop_conn.next_deadline a with
      | None -> Alcotest.fail "no deadline while unacked"
      | Some d ->
        let o = Sscop_conn.tick a ~now:d in
        if List.exists (function Sscop_conn.Reset _ -> true | _ -> false)
             o.Sscop_conn.events
        then now
        else starve d (n + 1)
    end
  in
  ignore (starve 0.0 0);
  check "back to idle" true (Sscop_conn.state a = Sscop_conn.Idle)

let test_conn_release_handshake () =
  let a, b = establish () in
  let o = Sscop_conn.release a ~now:1.0 in
  let _, endak, b_events = feed b ~now:1.0 o.Sscop_conn.to_send in
  check "peer released" true (List.mem Sscop_conn.Released b_events);
  let _, _, a_events = feed a ~now:1.0 endak in
  check "originator released" true (List.mem Sscop_conn.Released a_events);
  check "both idle" true
    (Sscop_conn.state a = Sscop_conn.Idle && Sscop_conn.state b = Sscop_conn.Idle)

let test_conn_bgn_retransmission () =
  let a = Sscop_conn.create () in
  let o = Sscop_conn.begin_connection a ~now:0.0 in
  checki "BGN sent" 1 (List.length o.Sscop_conn.to_send);
  (* No answer: ticking at the deadline re-sends BGN. *)
  let d = Option.get (Sscop_conn.next_deadline a) in
  let o2 = Sscop_conn.tick a ~now:d in
  checki "BGN retransmitted" 1 (List.length o2.Sscop_conn.to_send);
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
      (* Send everything at once; each wire crossing drops frames with
         probability 0.3 (but never the same frame forever thanks to
         retransmission). *)
      List.iter
        (fun p ->
          match Sscop_conn.send a ~now:!now (Bytes.of_string p) with
          | Ok o ->
            List.iter
              (fun f ->
                if not (Ldlp_sim.Rng.bool rng 0.3) then begin
                  let o = Sscop_conn.on_receive b ~now:!now f in
                  delivered := !delivered @ o.Sscop_conn.deliveries;
                  (* acks may be dropped too *)
                  List.iter
                    (fun ack ->
                      if not (Ldlp_sim.Rng.bool rng 0.3) then
                        ignore (Sscop_conn.on_receive a ~now:!now ack))
                    o.Sscop_conn.to_send
                end)
              o.Sscop_conn.to_send
          | Error `Not_ready -> ())
        payloads;
      (* Drive recovery; the deterministic drop pattern ends after a few
         rounds because each round redraws coins. *)
      let rounds = ref 0 in
      while Sscop_conn.unacked a > 0 && !rounds < 200 do
        incr rounds;
        (match Sscop_conn.next_deadline a with
        | None -> ()
        | Some d ->
          now := d;
          let o = Sscop_conn.tick a ~now:!now in
          List.iter
            (fun f ->
              if not (Ldlp_sim.Rng.bool rng 0.3) then begin
                let ob = Sscop_conn.on_receive b ~now:!now f in
                delivered := !delivered @ ob.Sscop_conn.deliveries;
                List.iter
                  (fun reply ->
                    if not (Ldlp_sim.Rng.bool rng 0.3) then
                      ignore (Sscop_conn.on_receive a ~now:!now reply))
                  ob.Sscop_conn.to_send
              end)
            o.Sscop_conn.to_send)
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
    check "called party forwarded" true
      (Ie.find Ie.id_called_party m2.Sigmsg.ies <> None);
    check "vci allocated" true (Ie.find Ie.id_vpcvci m2.Sigmsg.ies <> None);
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

let test_layers_no_acks_option () =
  let sw = make_switch () in
  let st = Layers.stack ~pool ~switch:sw ~acks:false () in
  let downs = ref 0 in
  let sched =
    Ldlp_core.Engine.rx_chain ~discipline:Ldlp_core.Engine.Conventional
      ~layers:st.Layers.layers
      ~down:(fun _ -> incr downs)
      ()
  in
  let frame = List.hd (setup_frames ~port:1 ~count:1 "b:1") in
  let port, bytes = frame in
  let m = Layers.frame ~pool ~port bytes in
  Ldlp_core.Engine.inject sched ~node:0
    (Ldlp_core.Msg.make ~size:(Ldlp_buf.Mbuf.length m) (Layers.Raw m));
  Ldlp_core.Engine.run sched;
  (* Without sscop acks: only CALL_PROCEEDING + forwarded SETUP. *)
  checki "two transmissions, no ack" 2 !downs

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
    QCheck_alcotest.to_alcotest prop_switch_random_valid_scripts;
    Alcotest.test_case "layers end to end" `Quick test_layers_end_to_end;
    Alcotest.test_case "layers acks disabled" `Quick test_layers_no_acks_option;
    Alcotest.test_case "layers sscop_for rejects ports outside a byte" `Quick
      test_layers_sscop_for_bad_port;
    QCheck_alcotest.to_alcotest prop_layers_wire_bytes;
    Alcotest.test_case "layers ldlp = conventional" `Quick
      test_layers_ldlp_equals_conventional;
  ]
