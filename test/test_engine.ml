(* Engine-level tests: stats conservation for every stack shape on random
   stacks under both disciplines, the shape-specific idle check, transmit-
   side intake shedding, and the full-duplex topology (same-pass ACK
   drainage, conservation, shedding at both entries). *)

open Ldlp_core

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- random stacks for the conservation property ---------- *)

type case = {
  behs : int list;  (* per-layer behaviour selector, bottom-first *)
  nmsgs : int;
  disc : int;  (* 0 = Conventional, 1 = Ldlp All, 2 = Ldlp paper_default *)
  limit : int option;
}

let pp_case c =
  Printf.sprintf "{behs=[%s]; nmsgs=%d; disc=%d; limit=%s}"
    (String.concat ";" (List.map string_of_int c.behs))
    c.nmsgs c.disc
    (match c.limit with None -> "none" | Some l -> string_of_int l)

let gen_case =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    list_repeat n (int_range 0 5) >>= fun behs ->
    int_range 0 40 >>= fun nmsgs ->
    int_range 0 2 >>= fun disc ->
    oneof [ return None; map (fun l -> Some l) (int_range 1 8) ]
    >>= fun limit -> return { behs; nmsgs; disc; limit })

let arb_case = QCheck.make ~print:pp_case gen_case

let discipline_of c =
  match c.disc with
  | 0 -> Engine.Conventional
  | 1 -> Engine.Ldlp Batch.All
  | _ -> Engine.Ldlp Batch.paper_default

(* Handlers are deterministic functions of the payload (the injection
   index), as in the oracle, so conventional and blocked runs describe the
   same work.  Behaviours mix misroutes, consumes and replies in both
   directions. *)
let rx_layer i beh =
  let name = Printf.sprintf "l%d" i in
  let handle m =
    match beh with
    | 1 ->
        if m.Msg.payload mod 5 = 0 then [ Layer.Deliver_to ("nowhere", m) ]
        else [ Layer.Deliver_up m ]
    | 2 ->
        if m.Msg.payload mod 2 = 0 then [ Layer.Consume ]
        else [ Layer.Deliver_up m ]
    | 3 ->
        if m.Msg.payload mod 3 = 0 then
          [ Layer.Send_down (Msg.make ~size:40 (-m.Msg.payload - 1));
            Layer.Deliver_up m ]
        else [ Layer.Deliver_up m ]
    | 4 ->
        if m.Msg.payload mod 3 = 0 then [ Layer.Consume ]
        else [ Layer.Deliver_up m ]
    | _ -> [ Layer.Deliver_up m ]
  in
  let tx m =
    match beh with
    | 2 ->
        if m.Msg.payload mod 2 = 0 then [ Layer.Consume ]
        else [ Layer.Send_down m ]
    | 3 ->
        if m.Msg.payload mod 3 = 0 then
          [ Layer.Deliver_up (Msg.make ~size:40 (-m.Msg.payload - 1));
            Layer.Send_down m ]
        else [ Layer.Send_down m ]
    | 4 ->
        if m.Msg.payload mod 3 = 0 then [ Layer.Consume ]
        else [ Layer.Send_down m ]
    | _ -> [ Layer.Send_down m ]
  in
  Layer.v ~name ~tx handle

let case_msgs c =
  List.init c.nmsgs (fun i -> Msg.make ~flow:(i mod 3) ~size:(32 * (i mod 4)) i)

(* Offer the case's messages at [entry], stepping once every fifth
   arrival, run to idle and return the stats. *)
let drive eng ~entry c =
  List.iteri
    (fun i m ->
      ignore (Engine.try_inject eng ~node:entry m);
      if i mod 5 = 4 then ignore (Engine.step eng))
    (case_msgs c);
  Engine.run eng;
  Engine.stats eng

(* The flow equations each stack shape guarantees at idle: every offer is
   injected or shed; a receive chain or graph ends each injected message
   above, consumed or misrouted; a transmit chain on the wire or consumed;
   and in every chain every injection is batched exactly once. *)
let prop_shapes_conserve c =
  let layers = List.mapi rx_layer c.behs in
  let discipline = discipline_of c in
  let intake_limit = c.limit in
  let offered = c.nmsgs in
  let rx =
    drive (Engine.rx_chain ~discipline ~layers ?intake_limit ()) ~entry:0 c
  in
  let tx =
    drive (Engine.tx_chain ~discipline ~layers ()) ~entry:(List.length layers - 1) c
  in
  let graph =
    (* The chain as a graph, registered top-down: each layer sits below
       the one registered before it. *)
    let g = Engine.create ~discipline ?intake_limit () in
    let bottom =
      List.fold_left
        (fun above l -> [ Engine.add_layer g ~above l ])
        [] (List.rev layers)
    in
    drive g ~entry:(List.hd bottom) c
  in
  let flows_in (s : Engine.stats) = s.Engine.injected + s.Engine.shed = offered in
  let up_side (s : Engine.stats) =
    s.Engine.injected = s.Engine.to_up + s.Engine.consumed + s.Engine.misrouted
  in
  flows_in rx && flows_in tx && flows_in graph
  && up_side rx && up_side graph
  && rx.Engine.total_batched = rx.Engine.injected
  && graph.Engine.total_batched = graph.Engine.injected
  && tx.Engine.injected = tx.Engine.to_down + tx.Engine.consumed
  && tx.Engine.total_batched = tx.Engine.injected

(* ---------- the moved idle check still fires ---------- *)

(* A top layer that answers [Deliver_up m; Consume] ends one message
   twice, so the receive chain's idle conservation check must trip. *)
let test_rx_chain_idle_check () =
  let eng =
    Engine.rx_chain ~discipline:(Engine.Ldlp Batch.All)
      ~layers:
        [
          Layer.passthrough "l0";
          Layer.v ~name:"l1" (fun m -> [ Layer.Deliver_up m; Layer.Consume ]);
        ]
      ()
  in
  Engine.inject eng ~node:0 (Msg.make ~size:64 0);
  let was = Invariant.enabled () in
  Invariant.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Invariant.set_enabled was)
    (fun () ->
      check "run raises Violation" true
        (try
           Engine.run eng;
           false
         with Invariant.Violation _ -> true))

(* ---------- transmit-side intake shedding ---------- *)

(* Mirror of test_core's [test_intake_shedding] for the transmit side
   (submission-queue high-watermark), at a duplex engine's transmit
   entry. *)
let test_tx_intake_shedding () =
  let shed_ids = ref [] in
  let wired = ref [] in
  let tx =
    Engine.duplex ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "l0"; Layer.passthrough "l1" ]
      ~wire:(fun m -> wired := m.Msg.id :: !wired)
      ~intake_limit:3
      ~on_shed:(fun m -> shed_ids := m.Msg.id :: !shed_ids)
      ()
  in
  let entry = Engine.duplex_tx_entry tx in
  let results =
    List.map
      (fun m -> (m.Msg.id, Engine.try_inject tx ~node:entry m))
      (List.init 5 (fun i -> Msg.make ~size:10 i))
  in
  checki "watermark admits 3" 3 (List.length (List.filter snd results));
  checki "2 passed to on_shed" 2 (List.length !shed_ids);
  Alcotest.(check (list bool))
    "first-come first-served" [ true; true; true; false; false ]
    (List.map snd results);
  let st = Engine.stats tx in
  checki "stats.shed" 2 st.Engine.shed;
  (* Shed submissions never enter the chain: submitted counts only the
     accepted three. *)
  checki "shed not counted submitted" 3 st.Engine.injected;
  Engine.run tx;
  checki "accepted messages all transmitted" 3 (List.length !wired);
  checki "nothing shed mid-run" 2 (Engine.stats tx).Engine.shed;
  (* Draining the submission queue reopens the intake. *)
  check "room after run" true
    (Engine.try_inject tx ~node:entry (Msg.make ~size:10 9));
  (* Without a limit try_inject never refuses. *)
  let open_tx =
    Engine.tx_chain ~discipline:(Engine.Ldlp Batch.All)
      ~layers:[ Layer.passthrough "l0" ]
      ()
  in
  check "unlimited intake" true
    (List.for_all Fun.id
       (List.init 100 (fun i -> Engine.try_inject open_tx ~node:0 (Msg.make i))))

(* ---------- full-duplex topology ---------- *)

let test_duplex_layer_names () =
  Alcotest.(check (list string))
    "rx names then /tx names, bottom-first"
    [ "a"; "b"; "a/tx"; "b/tx" ]
    (Engine.duplex_layer_names [ "a"; "b" ])

let test_duplex_entries () =
  let eng =
    Engine.duplex ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "a"; Layer.passthrough "b"; Layer.passthrough "c" ]
      ()
  in
  checki "2n nodes" 6 (Engine.node_count eng);
  checki "rx entry is node 0" 0 (Engine.duplex_rx_entry eng);
  checki "tx entry is node 2n-1" 5 (Engine.duplex_tx_entry eng);
  check "rx entry flagged" true (Engine.is_entry eng 0);
  check "tx entry flagged" true (Engine.is_entry eng 5);
  check "mid nodes are not entries" true
    (List.for_all (fun i -> not (Engine.is_entry eng i)) [ 1; 2; 3; 4 ]);
  Alcotest.(check (list string))
    "node names follow duplex_layer_names"
    (Engine.duplex_layer_names [ "a"; "b"; "c" ])
    (List.init 6 (Engine.node_name eng))

let test_duplex_conservation () =
  let up = ref [] in
  let wire = ref [] in
  let eng =
    Engine.duplex ~discipline:(Engine.Ldlp Batch.All)
      ~layers:[ Layer.passthrough "l0"; Layer.passthrough "l1" ]
      ~up:(fun m -> up := m.Msg.payload :: !up)
      ~wire:(fun m -> wire := m.Msg.payload :: !wire)
      ()
  in
  List.iter
    (fun i -> Engine.inject eng ~node:(Engine.duplex_rx_entry eng) (Msg.make ~size:64 i))
    [ 0; 1; 2; 3 ];
  List.iter
    (fun i -> Engine.inject eng ~node:(Engine.duplex_tx_entry eng) (Msg.make ~size:64 i))
    [ 10; 11; 12 ];
  Engine.run eng;
  checki "all rx delivered" 4 (List.length !up);
  Alcotest.(check (list int)) "wire FIFO" [ 10; 11; 12 ] (List.rev !wire);
  let st = Engine.stats eng in
  checki "injected both entries" 7 st.Engine.injected;
  checki "to_up" 4 st.Engine.to_up;
  checki "to_down" 3 st.Engine.to_down;
  checki "idle" 0 (Engine.pending eng);
  checki "conservation" st.Engine.injected
    (st.Engine.to_up + st.Engine.to_down + st.Engine.consumed
   + st.Engine.misrouted)

(* The duplex-specific behaviour: replies generated while draining a
   receive batch cross into the transmit side and reach the wire in the
   same scheduling pass, before newly arrived receive work is touched. *)
let test_duplex_same_pass_acks () =
  let wire = ref [] in
  let top =
    Layer.v ~name:"l1" (fun m ->
        [ Layer.Send_down (Msg.make ~size:40 (1000 + m.Msg.payload));
          Layer.Deliver_up m ])
  in
  let eng =
    Engine.duplex ~discipline:(Engine.Ldlp Batch.All)
      ~layers:[ Layer.passthrough "l0"; top ]
      ~wire:(fun m -> wire := m.Msg.payload :: !wire)
      ()
  in
  let rx = Engine.duplex_rx_entry eng in
  Engine.inject eng ~node:rx (Msg.make ~size:64 0);
  Engine.inject eng ~node:rx (Msg.make ~size:64 1);
  (* Quantum 1: the rx entry batch climbs to the top rx queue. *)
  check "entry quantum" true (Engine.step eng);
  (* New frames arrive; they must wait behind the in-flight batch. *)
  Engine.inject eng ~node:rx (Msg.make ~size:64 2);
  Engine.inject eng ~node:rx (Msg.make ~size:64 3);
  (* Quantum 2: top rx layer replies — ACKs enter the top tx queue. *)
  check "top rx quantum" true (Engine.step eng);
  (* Quanta 3-4: the tx side outranks the waiting rx entry backlog, so
     both ACKs descend to the wire before frames 2 and 3 are touched. *)
  check "tx entry quantum" true (Engine.step eng);
  check "tx bottom quantum" true (Engine.step eng);
  Alcotest.(check (list int)) "ACKs on the wire, in order" [ 1000; 1001 ]
    (List.rev !wire);
  checki "new arrivals still queued" 2 (Engine.backlog eng ~node:rx);
  checki "two tx-side switches so far" 2 (Engine.tx_runs eng);
  Engine.run eng;
  Alcotest.(check (list int)) "second batch's ACKs follow"
    [ 1000; 1001; 1002; 1003 ] (List.rev !wire);
  let st = Engine.stats eng in
  checki "every frame delivered" 4 st.Engine.to_up;
  checki "every ACK transmitted" 4 st.Engine.to_down

let test_duplex_shed_both_entries () =
  let shed = ref 0 in
  let eng =
    Engine.duplex ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "l0" ]
      ~intake_limit:2
      ~on_shed:(fun _ -> incr shed)
      ()
  in
  let rx = Engine.duplex_rx_entry eng in
  let tx = Engine.duplex_tx_entry eng in
  check "rx 1" true (Engine.try_inject eng ~node:rx (Msg.make 0));
  check "rx 2" true (Engine.try_inject eng ~node:rx (Msg.make 1));
  check "rx over watermark" false (Engine.try_inject eng ~node:rx (Msg.make 2));
  check "tx 1" true (Engine.try_inject eng ~node:tx (Msg.make 10));
  check "tx 2" true (Engine.try_inject eng ~node:tx (Msg.make 11));
  check "tx over watermark" false (Engine.try_inject eng ~node:tx (Msg.make 12));
  checki "both refusals shed" 2 !shed;
  checki "stats.shed" 2 (Engine.stats eng).Engine.shed;
  checki "accepted only" 4 (Engine.stats eng).Engine.injected;
  Engine.run eng;
  check "intake reopens" true (Engine.try_inject eng ~node:rx (Msg.make 3))

let test_duplex_metrics_rows () =
  let eng =
    Engine.duplex ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "a"; Layer.passthrough "b" ]
      ()
  in
  check "sheet must have 2n rows" true
    (try
       Engine.attach_metrics eng
         (Ldlp_obs.Metrics.create ~label:"bad" ~layer_names:[ "a"; "b" ]);
       false
     with Invalid_argument _ -> true);
  Engine.attach_metrics eng
    (Ldlp_obs.Metrics.create ~label:"ok"
       ~layer_names:(Engine.duplex_layer_names [ "a"; "b" ]))

(* ---------- steady-state quantum allocates nothing ---------- *)

(* The whole point of the pooled hot path: once the pool, the ring
   buffers and the free list are warm, an inject+run quantum of
   constant-action layers must not touch the minor heap at all (metrics
   and invariants off).  We run many quanta between two [Gc.minor_words]
   probes and allow less than one word per quantum, which only a
   genuinely allocation-free path can meet — the slack absorbs the boxed
   float the probe itself allocates. *)
let test_zero_alloc_quantum () =
  let quanta = 64 and batch = 16 in
  let run_discipline discipline =
    let layers =
      [
        Layer.passthrough "ether";
        Layer.passthrough "ip";
        Layer.v ~name:"sink" (fun _ -> Layer.consume_only);
      ]
    in
    let mpool = Msg.pool () in
    let sched =
      Engine.rx_chain ~discipline ~layers
        ~on_consume:(fun m -> Msg.release mpool m)
        ()
    in
    let quantum () =
      for _ = 1 to batch do
        Engine.inject sched ~node:0 (Msg.acquire mpool ~arrival:0.0 ~size:64 0)
      done;
      Engine.run sched
    in
    (* Warm the pool, the free list and the node ring buffers. *)
    for _ = 1 to 4 do
      quantum ()
    done;
    let before = Gc.minor_words () in
    for _ = 1 to quanta do
      quantum ()
    done;
    let delta = Gc.minor_words () -. before in
    if delta >= float_of_int quanta then
      Alcotest.failf
        "steady-state quantum allocates: %.0f minor words over %d quanta"
        delta quanta
  in
  let was = Invariant.enabled () in
  Invariant.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Invariant.set_enabled was)
    (fun () ->
      run_discipline Engine.Conventional;
      run_discipline (Engine.Ldlp Batch.All);
      run_discipline (Engine.Ldlp Batch.paper_default))

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  [
    qcheck
      (QCheck.Test.make ~name:"chain, tx chain and graph stats conserve"
         ~count:150 arb_case prop_shapes_conserve);
    Alcotest.test_case "rx chain idle check fires" `Quick
      test_rx_chain_idle_check;
    Alcotest.test_case "tx intake shedding" `Quick test_tx_intake_shedding;
    Alcotest.test_case "duplex layer names" `Quick test_duplex_layer_names;
    Alcotest.test_case "duplex entries" `Quick test_duplex_entries;
    Alcotest.test_case "duplex conservation" `Quick test_duplex_conservation;
    Alcotest.test_case "duplex same-pass ACKs" `Quick
      test_duplex_same_pass_acks;
    Alcotest.test_case "duplex shed at both entries" `Quick
      test_duplex_shed_both_entries;
    Alcotest.test_case "duplex metrics row shape" `Quick
      test_duplex_metrics_rows;
    Alcotest.test_case "zero-alloc steady-state quantum" `Quick
      test_zero_alloc_quantum;
  ]
