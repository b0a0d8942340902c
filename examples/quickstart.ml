(* Quickstart: build a small four-layer protocol stack, run the same
   layers under conventional and LDLP scheduling, and watch batching kick
   in under load.

     dune exec examples/quickstart.exe

   The layers here are trivial (they stamp the message and pass it up);
   what changes between the two runs is purely the *order* in which
   (layer, message) pairs execute — which is the paper's entire trick. *)

module Core = Ldlp_core

let () =
  let pool = Ldlp_buf.Pool.create () in

  (* 1. Define layers.  A layer is a name, an optional cache footprint
     (used by the analytic planner below), and a handler. *)
  let layer name =
    Core.Layer.v ~name
      ~fp:(Core.Layer.footprint ~code_bytes:6144 ~data_bytes:256 ())
      (fun msg ->
        (* A real layer would parse/strip a header here; the mbuf chain in
           msg.payload supports that without copying (see web_server.ml). *)
        [ Core.Layer.Deliver_up msg ])
  in
  let layers = List.map layer [ "mac"; "net"; "transport"; "session" ] in

  (* 2. Ask the blocking planner (Section 3.2 of the paper) what to expect
     for this stack on the paper's machine. *)
  let stack_shape =
    {
      Core.Blocking.layer_code_bytes = List.map (fun l -> l.Core.Layer.fp.Core.Layer.code_bytes) layers;
      layer_data_bytes = List.map (fun l -> l.Core.Layer.fp.Core.Layer.data_bytes) layers;
      msg_bytes = 552;
      cycles_per_msg = 4 * 1652;
    }
  in
  let plan = Core.Blocking.recommend Core.Blocking.paper_machine stack_shape in
  Format.printf "Planner says:@.%a@.@."
    Core.Blocking.pp_recommendation plan;

  (* 3. Drive both disciplines with the same overloaded arrival schedule.
     The service model charges each layer a fixed cost amortised over the
     batch it runs in — the I-cache economics of the paper, in miniature. *)
  let rng = Ldlp_sim.Rng.create ~seed:42 in
  let workload =
    Core.Runtime.poisson_workload ~rng ~rate:8000.0 ~duration:0.5 ~size:552
  in
  (* Service model scaled to the paper's machine: the whole conventional
     stack costs ~286 us per message (4 layers x ~71.5 us of cache refill +
     execution); the refill part amortises over the batch. *)
  let service ~batch _msg = 71.5e-6 /. float_of_int batch +. 0.55e-6 in
  let run discipline =
    Core.Runtime.run ~discipline ~layers
      ~make_payload:(fun ~size -> Ldlp_buf.Mbuf.of_bytes pool (Bytes.create (min size 1024)))
      ~service workload
  in
  let show name (r : Core.Runtime.report) =
    Printf.printf
      "%-13s processed %5d  dropped %4d  mean latency %8.1f us  p99 %8.1f us  max batch %d\n"
      name r.Core.Runtime.processed r.Core.Runtime.dropped
      (Ldlp_sim.Hist.mean r.Core.Runtime.latency *. 1e6)
      (Ldlp_sim.Hist.percentile r.Core.Runtime.latency 0.99 *. 1e6)
      r.Core.Runtime.stats.Core.Engine.max_batch
  in
  Printf.printf "8000 msg/s offered for 0.5 s, 552-byte messages:\n";
  show "conventional" (run Core.Engine.Conventional);
  show "ldlp" (run (Core.Engine.Ldlp Core.Batch.paper_default));
  print_newline ();
  Printf.printf
    "LDLP survives the same load by running each layer over a batch of\n\
     messages (up to %d here), paying the layer's cache footprint once per\n\
     batch instead of once per message.\n"
    plan.Core.Blocking.batch
