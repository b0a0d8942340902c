(* The paper's motivating workload: an ATM-style signalling switch.

     dune exec examples/signalling_switch.exe [-- <pairs>]

   Section 1 sets the goal: "support 10000 pairs of setup/teardown
   requests per second with processing latency of 100 microseconds for
   setup requests, using just a commodity workstation processor."

   This example floods the Q.93B-like switch (link / SSCOP / Q.93B / call
   control, scheduled by the LDLP engine) with complete call lifecycles —
   SETUP, CONNECT_ACK, RELEASE per call, against an auto-answering local
   exchange — and reports
   sustained signalling message throughput and per-message cost in real
   wall-clock time, under both scheduling disciplines. *)

module Core = Ldlp_core
open Ldlp_sigproto

let pairs =
  if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 20_000

(* Encode the caller side's messages for [n] full call lifecycles.  Each
   caller message rides its own SSCOP frame on port 1; the switch answers
   SETUP with CALL_PROCEEDING + CONNECT (auto-answer), so the caller's
   pre-scripted CONNECT_ACK and RELEASE arrive in valid states. *)
let caller_frames n =
  let tx = Sscop.create () in
  let sscop_for _ = tx in
  List.concat
    (List.init n (fun i ->
         let call_ref = (i mod 0x7FFFF0) + 1 in
         (* Explicit lets: the shared SSCOP transmitter must stamp sequence
            numbers in send order, and list literals evaluate
            right-to-left. *)
         let setup =
           Layers.encode_tx ~sscop_for ~port:1
             (Sigmsg.v ~call_ref Sigmsg.Setup
                [ Ie.called_party "local:80"; Ie.qos 1 ])
         in
         let connect_ack =
           Layers.encode_tx ~sscop_for ~port:1
             (Sigmsg.v ~call_ref Sigmsg.Connect_ack [])
         in
         let release =
           Layers.encode_tx ~sscop_for ~port:1
             (Sigmsg.v ~call_ref Sigmsg.Release [])
         in
         [ setup; connect_ack; release ]))

let run ~discipline frames =
  let pool = Ldlp_buf.Pool.create () in
  (* All addresses terminate on the local port: the switch acts as the
     called-side exchange, which is the expensive half of the work. *)
  let switch = Switch.create ~auto_answer:true ~routes:[] ~local_port:0 () in
  let st = Layers.stack ~pool ~switch () in
  let tx_count = ref 0 in
  let sched =
    Core.Engine.rx_chain ~discipline ~layers:st.Layers.layers
      ~down:(fun _ -> incr tx_count)
      ()
  in
  let msgs =
    List.map
      (fun (port, bytes) ->
        let m = Layers.frame ~pool ~port bytes in
        Core.Msg.make ~size:(Ldlp_buf.Mbuf.length m) (Layers.Raw m))
      frames
  in
  let t0 = Unix.gettimeofday () in
  (* Inject in bursts of 32 so the LDLP scheduler actually sees batches,
     as a device driver would hand it everything a DMA ring holds. *)
  let rec feed = function
    | [] -> ()
    | msgs ->
      let rec take n acc rest =
        if n = 0 then (List.rev acc, rest)
        else match rest with [] -> (List.rev acc, []) | m :: tl -> take (n - 1) (m :: acc) tl
      in
      let burst, rest = take 32 [] msgs in
      List.iter (Core.Engine.inject sched ~node:0) burst;
      Core.Engine.run sched;
      feed rest
  in
  feed msgs;
  let dt = Unix.gettimeofday () -. t0 in
  (dt, Switch.stats switch, Core.Engine.stats sched, !tx_count)

let report name n (dt, sw, st, tx) =
  let msgs = st.Core.Engine.injected in
  Printf.printf
    "%-13s %7d calls (%7d msgs rx, %7d tx) in %6.3f s -> %8.0f calls/s, %6.2f us/msg, max batch %d\n"
    name n msgs tx dt
    (float_of_int n /. dt)
    (dt /. float_of_int msgs *. 1e6)
    st.Core.Engine.max_batch;
  assert (sw.Switch.setups_routed = n);
  assert (sw.Switch.calls_connected = n);
  assert (sw.Switch.calls_released = n);
  assert (sw.Switch.protocol_errors = 0)

let () =
  Printf.printf
    "Signalling switch flood: %d setup/teardown pairs (paper goal: 10000 \
     pairs/s at ~100 us/message)\n\n"
    pairs;
  let frames = caller_frames pairs in
  report "conventional" pairs (run ~discipline:Core.Engine.Conventional frames);
  report "ldlp" pairs
    (run ~discipline:(Core.Engine.Ldlp Core.Batch.paper_default) frames);
  print_newline ();
  Printf.printf
    "On a modern CPU both disciplines beat the 1996 goal outright; the\n\
     point of the LDLP run is that the same handlers tolerate batching\n\
     unchanged, and on a machine whose protocol working set exceeds the\n\
     primary cache the batched schedule is what keeps this throughput\n\
     (see `ldlp_repro fig6`).\n"
