(* Tests for the simulated network adaptor: descriptor rings, drops,
   interrupt coalescing, and the driver glue into the LDLP scheduler. *)

open Ldlp_nic

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---------- Rings ---------- *)

let test_ring_full () =
  (* Both rings refuse at their slot bound, take a frame again once one
     leaves, and keep FIFO order across the refusal. *)
  let nic = Nic.create ~rx_slots:2 ~tx_slots:2 () in
  check "rx 1" true (Nic.deliver nic 1);
  check "rx 2" true (Nic.deliver nic 2);
  check "rx full refuses" false (Nic.deliver nic 3);
  Alcotest.(check (option int)) "take" (Some 1) (Nic.take nic);
  check "rx room again" true (Nic.deliver nic 3);
  Alcotest.(check (list int)) "rx order preserved" [ 2; 3 ] (Nic.take_all nic);
  Alcotest.(check (option int)) "rx empty" None (Nic.take nic);
  check "tx 1" true (Nic.transmit nic 1);
  check "tx 2" true (Nic.transmit nic 2);
  check "tx full refuses" false (Nic.transmit nic 3);
  Alcotest.(check (option int)) "wire take" (Some 1) (Nic.wire_take nic);
  check "tx room again" true (Nic.transmit nic 3);
  Alcotest.(check (list int)) "tx order preserved" [ 2; 3 ] (Nic.wire_take_all nic);
  let s = Nic.stats nic in
  checki "rx drops" 1 s.Nic.rx_drops;
  checki "tx drops" 1 s.Nic.tx_drops;
  let rejected f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "rx_slots = 0 rejected" true (rejected (fun () -> Nic.create ~rx_slots:0 ()));
  check "tx_slots = 0 rejected" true (rejected (fun () -> Nic.create ~tx_slots:0 ()))

let prop_ring_fifo =
  QCheck.Test.make ~name:"ring preserves order of accepted pushes" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let nic = Nic.create ~rx_slots:16 ~tx_slots:16 () in
      let rx = List.filter (Nic.deliver nic) xs in
      let tx = List.filter (Nic.transmit nic) xs in
      List.length rx = min 16 (List.length xs)
      && Nic.take_all nic = rx
      && Nic.wire_take_all nic = tx)

(* ---------- Nic ---------- *)

let test_nic_rx_and_drops () =
  let nic = Nic.create ~rx_slots:3 () in
  check "a" true (Nic.deliver nic "a");
  check "b" true (Nic.deliver nic "b");
  check "c" true (Nic.deliver nic "c");
  check "d dropped" false (Nic.deliver nic "d");
  let s = Nic.stats nic in
  checki "frames" 3 s.Nic.rx_frames;
  checki "drops" 1 s.Nic.rx_drops;
  Alcotest.(check (list string)) "take all" [ "a"; "b"; "c" ] (Nic.take_all nic);
  checki "ring empty" 0 (Nic.rx_available nic)

let test_nic_ring_full_metrics_agree () =
  (* A 4-slot ring refusing the 5th frame must record the drop twice over:
     in the stats record and in the metrics sheet's "rx_drops" scalar. *)
  Ldlp_obs.Obs.with_enabled true (fun () ->
      let m = Ldlp_obs.Metrics.create ~label:"nic" ~layer_names:[] in
      let nic = Nic.create ~rx_slots:4 ~metrics:m () in
      for i = 1 to 4 do
        check "accepted" true (Nic.deliver nic i)
      done;
      check "5th refused" false (Nic.deliver nic 5);
      check "6th refused" false (Nic.deliver nic 6);
      let s = Nic.stats nic in
      checki "stats: frames" 4 s.Nic.rx_frames;
      checki "stats: drops" 2 s.Nic.rx_drops;
      let scalar name = List.assoc name (Ldlp_obs.Metrics.scalars m) in
      checki "scalar mirrors rx_frames" s.Nic.rx_frames (scalar "rx_frames");
      checki "scalar mirrors rx_drops" s.Nic.rx_drops (scalar "rx_drops");
      (* Drain and refill: both views keep agreeing. *)
      ignore (Nic.take_all nic);
      ignore (Nic.deliver nic 7);
      let s = Nic.stats nic in
      checki "frames again" s.Nic.rx_frames (scalar "rx_frames");
      checki "drops unchanged" s.Nic.rx_drops (scalar "rx_drops"))

let test_nic_irq_per_frame () =
  let nic = Nic.create () in
  check "no irq initially" false (Nic.irq_pending nic);
  ignore (Nic.deliver nic ());
  check "irq raised" true (Nic.irq_pending nic);
  ignore (Nic.deliver nic ());
  let s = Nic.stats nic in
  (* Second delivery while pending does not double-count interrupts. *)
  checki "one interrupt outstanding" 1 s.Nic.interrupts;
  ignore (Nic.take_all nic);
  check "acked by service" false (Nic.irq_pending nic);
  ignore (Nic.deliver nic ());
  checki "new interrupt" 2 (Nic.stats nic).Nic.interrupts

let test_nic_irq_coalesced () =
  let nic = Nic.create ~irq:(Nic.Coalesced 4) () in
  for _ = 1 to 3 do
    ignore (Nic.deliver nic ())
  done;
  check "below threshold" false (Nic.irq_pending nic);
  ignore (Nic.deliver nic ());
  check "fires at threshold" true (Nic.irq_pending nic);
  checki "one interrupt for four frames" 1 (Nic.stats nic).Nic.interrupts

let test_nic_coalesced_full_ring_fires () =
  let nic = Nic.create ~rx_slots:2 ~irq:(Nic.Coalesced 100) () in
  ignore (Nic.deliver nic ());
  ignore (Nic.deliver nic ());
  check "full ring forces irq" true (Nic.irq_pending nic)

let test_nic_tx () =
  let nic = Nic.create ~tx_slots:2 () in
  check "tx 1" true (Nic.transmit nic "x");
  check "tx 2" true (Nic.transmit nic "y");
  check "tx full" false (Nic.transmit nic "z");
  Alcotest.(check (list string)) "wire drains" [ "x"; "y" ] (Nic.wire_take_all nic);
  let s = Nic.stats nic in
  checki "tx frames" 2 s.Nic.tx_frames;
  checki "tx drops" 1 s.Nic.tx_drops

let test_nic_service_into_sched () =
  let nic = Nic.create ~irq:(Nic.Coalesced 8) () in
  for i = 1 to 10 do
    ignore (Nic.deliver nic i)
  done;
  let delivered = ref [] in
  let eng =
    Ldlp_core.Engine.rx_chain
      ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
      ~layers:[ Ldlp_core.Layer.passthrough "l1"; Ldlp_core.Layer.passthrough "l2" ]
      ~up:(fun m -> delivered := m.Ldlp_core.Msg.payload :: !delivered)
      ()
  in
  let wrap i = Ldlp_core.Msg.make ~size:64 i in
  let moved = Nic.service_into nic eng ~node:0 ~wrap in
  checki "all frames moved" 10 moved;
  Ldlp_core.Engine.run eng;
  Alcotest.(check (list int))
    "delivered in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !delivered);
  (* The batch the scheduler saw came from the ring occupancy. *)
  let st = Ldlp_core.Engine.stats eng in
  check "batched" true (st.Ldlp_core.Engine.max_batch >= 8);
  (* Under an intake limit only the frames the engine accepts count as
     moved; the rest are shed, and the ring is empty either way. *)
  for i = 1 to 10 do
    ignore (Nic.deliver nic i)
  done;
  let shed = ref 0 in
  let limited =
    Ldlp_core.Engine.rx_chain ~discipline:Ldlp_core.Engine.Conventional
      ~layers:[ Ldlp_core.Layer.passthrough "l1" ]
      ~intake_limit:3
      ~on_shed:(fun _ -> incr shed)
      ()
  in
  checki "accepted frames only" 3 (Nic.service_into nic limited ~node:0 ~wrap);
  checki "the rest shed" 7 !shed;
  checki "ring drained" 0 (Nic.rx_available nic);
  checki "stats agree" 3 (Ldlp_core.Engine.stats limited).Ldlp_core.Engine.injected

let suite =
  [
    Alcotest.test_case "ring full" `Quick test_ring_full;
    QCheck_alcotest.to_alcotest prop_ring_fifo;
    Alcotest.test_case "nic rx/drops" `Quick test_nic_rx_and_drops;
    Alcotest.test_case "nic ring full: stats and metrics agree" `Quick
      test_nic_ring_full_metrics_agree;
    Alcotest.test_case "nic irq per-frame" `Quick test_nic_irq_per_frame;
    Alcotest.test_case "nic irq coalesced" `Quick test_nic_irq_coalesced;
    Alcotest.test_case "nic coalesced full ring" `Quick test_nic_coalesced_full_ring_fires;
    Alcotest.test_case "nic tx" `Quick test_nic_tx;
    Alcotest.test_case "nic service into sched" `Quick test_nic_service_into_sched;
  ]
