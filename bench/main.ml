(* Benchmark harness.

   Three sections:

   1. {b Reproduction} — prints every entry of the figure registry at the
      default (quick) fidelity, with the paper's published values
      alongside.  `bin/ldlp_repro` exposes the same figures with
      full-fidelity knobs (`--full` = 100 layouts x 1 s).

   2. {b Host measurements} — one flag each, listed in [experiments] at
      the bottom.  Each runs, writes and prints its schema-checked
      BENCH_*.json document, and exits nonzero when a gate fails.  The
      seeded experiments (soak, mesh, recovery, flows) are `ldlp_repro`'s.

   3. {b Microbenchmarks} — one Bechamel [Test.make] per table/figure (a
      reduced-size run of its generator, so regressions in the simulator
      itself are visible), plus wall-clock benches of the real code paths:
      both checksum routines, mbuf operations, the signalling codec and
      switch, and the LDLP engine against the conventional discipline. *)

open Bechamel
open Toolkit
module Schema = Ldlp_report.Schema

let quick = Ldlp_model.Params.quick

let bench_params = { quick with Ldlp_model.Params.runs = 1; seconds = 0.05 }

let seed = 1996

(* ------------------------------------------------------------------ *)
(* Section 1: reproduction output.                                     *)
(* ------------------------------------------------------------------ *)

let reproduce () =
  let ctx = Ldlp_report.Registry.context ~seed () in
  List.iter
    (fun (f : Ldlp_report.Registry.t) -> print_endline (f.render ctx))
    Ldlp_report.Registry.all

(* ------------------------------------------------------------------ *)
(* Section 2: experiments, each with its BENCH document and gates.     *)
(* ------------------------------------------------------------------ *)

(* What an experiment hands back: the document it writes, if any, and one
   message per gate that failed. *)
type outcome = {
  doc : (Schema.t * Schema.value list) option;
  failures : string list;
}

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Runs are short, so a single wall-clock sample is at the mercy of the
   host scheduler; the simulations are deterministic (checked), so
   best-of-N is the honest estimator. *)
let best_of n f =
  let r, s0 = wall f in
  let best = ref s0 in
  for _ = 2 to n do
    let r', s = wall f in
    assert (r' = r);
    if s < !best then best := s
  done;
  (r, !best)

(* Sweep wall clock -> BENCH_sweeps.json.  Each sweep generator is timed
   end to end at [domains = 1] and at the resolved parallel domain count,
   so future PRs have a perf trajectory to compare against.  The parallel
   run goes first so the sequential run cannot look artificially good on a
   cold allocator. *)
let bench_sweeps () =
  let domains = max 2 (Ldlp_par.Pool.available_domains ()) in
  let time name f =
    let par_pts, par_seconds = wall (fun () -> f ~domains) in
    let seq_pts, seq_seconds = wall (fun () -> f ~domains:1) in
    assert (par_pts = seq_pts);
    let speedup = if par_seconds > 0.0 then seq_seconds /. par_seconds else 0.0 in
    Schema.
      [
        S name; I (List.length seq_pts); F seq_seconds; F par_seconds; I domains;
        F speedup;
      ]
  in
  let module F = Ldlp_model.Figures in
  let rows =
    [
      time "rate_sweep" (fun ~domains -> F.rate_sweep ~domains ~params:quick ~seed ());
      time "clock_sweep" (fun ~domains -> F.clock_sweep ~domains ~params:quick ~seed ());
      time "ablation_batch" (fun ~domains ->
          F.ablation_batch ~domains ~params:quick ~seed ());
      time "comparison_ilp" (fun ~domains ->
          F.comparison_ilp ~domains ~params:quick ~seed ());
    ]
  in
  {
    doc =
      Some
        ( Schema.sweeps,
          Schema.
            [
              I (Domain.recommended_domain_count ());
              I (Ldlp_par.Pool.available_domains ());
              Rows rows;
            ] );
    failures = [];
  }

(* Hot-path baseline -> BENCH_hotpath.json.  Conventional vs LDLP on the
   Figure 5 under-load point (9000 msg/s, where batching matters), each
   timed twice: once metrics-off (the wall_seconds future PRs diff
   against) and once with a metric sheet attached, which supplies the real
   per-message allocation counts and prices the instrumentation itself.
   The simulation is deterministic, so the two runs must agree on every
   simulated number — checked. *)

let hotpath_rate = 9000.0

let hotpath_configs =
  [
    ("conventional", `Receive, Ldlp_model.Simrun.Conventional);
    ("ldlp", `Receive, Ldlp_model.Simrun.Ldlp);
    ("conventional-duplex", `Duplex, Ldlp_model.Simrun.Conventional);
    ("ldlp-duplex", `Duplex, Ldlp_model.Simrun.Ldlp);
  ]

(* Per-configuration regression budgets, enforced on every hot-path run.
   The allocation budget is minor-heap words allocated inside layer
   handlers per processed message: the receive chain is allocation-free
   since the pooled-message work, and the duplex host pays only for the
   reply's action list, so the budgets (< 5 classic, < 12 duplex) have
   real headroom below the old costs (25 and 63).  The throughput floor
   is the pre-pooling baseline simulated rate less 1% slack — simulated
   throughput is deterministic, so a shortfall means the model itself
   changed, not the host machine. *)
let hotpath_budgets =
  [
    ("conventional", 5.0, 3565.393);
    ("ldlp", 5.0, 8710.883);
    ("conventional-duplex", 12.0, 1825.304);
    ("ldlp-duplex", 12.0, 5021.043);
  ]

(* [rows] maps configuration name to (allocs/msg, simulated msg/s). *)
let hotpath_failures rows =
  List.concat_map
    (fun (name, budget, baseline) ->
      match List.assoc_opt name rows with
      | None -> [ Printf.sprintf "hot-path gate: no row for %s" name ]
      | Some (allocs, rate) ->
        let floor = 0.99 *. baseline in
        (if allocs >= budget then
           [
             Printf.sprintf
               "%s allocates %.2f minor words/msg in layer handlers (budget < \
                %.0f)"
               name allocs budget;
           ]
         else [])
        @
        if rate < floor then
          [
            Printf.sprintf
              "%s simulated throughput %.1f msg/s regressed below the baseline \
               floor %.1f msg/s"
              name rate floor;
          ]
        else [])
    hotpath_budgets

let hotpath_run ?metrics (_, direction, discipline) =
  let make_source rng =
    Ldlp_traffic.Source.limit_time
      (Ldlp_traffic.Poisson.source ~rng ~rate:hotpath_rate
         ~size:quick.Ldlp_model.Params.msg_bytes ())
      quick.Ldlp_model.Params.seconds
  in
  Ldlp_model.Simrun.run_avg ~direction ~params:quick ~discipline ~seed
    ~make_source ?metrics ()

(* One metrics-on run: the result and the minor words allocated in layer
   handlers per processed message. *)
let metered ((name, direction, _) as config) =
  let names = Ldlp_model.Simrun.layer_names quick in
  let layer_names =
    match direction with
    | `Duplex -> Ldlp_core.Engine.duplex_layer_names names
    | _ -> names
  in
  let m = Ldlp_obs.Metrics.create ~label:name ~layer_names in
  let r =
    Ldlp_obs.Obs.with_enabled true (fun () -> hotpath_run ~metrics:m config)
  in
  let words = (Ldlp_obs.Metrics.totals m).Ldlp_obs.Metrics.t_minor_words in
  let processed = r.Ldlp_model.Simrun.processed in
  (r, if processed = 0 then 0.0 else float_of_int words /. float_of_int processed)

let bench_hotpath () =
  let measure ((name, _, _) as config) =
    let r_off, off_s = best_of 5 (fun () -> hotpath_run config) in
    (* Every repetition fills an identical sheet, so keeping the last
       allocation count is keeping any. *)
    let allocs = ref 0.0 in
    let r_on, on_s =
      best_of 5 (fun () ->
          let r, a = metered config in
          allocs := a;
          r)
    in
    if r_on <> r_off then
      failwith (name ^ ": attaching metrics changed the simulation");
    (name, r_off, off_s, on_s, !allocs)
  in
  let measured = List.map measure hotpath_configs in
  let total pick = List.fold_left (fun a m -> a +. pick m) 0.0 measured in
  let off_total = total (fun (_, _, off, _, _) -> off)
  and on_total = total (fun (_, _, _, on, _) -> on) in
  let overhead_pct =
    if off_total > 0.0 then (on_total -. off_total) /. off_total *. 100.0
    else 0.0
  in
  (* Cross-direction amortisation: under duplex, reply traffic generated
     while draining a receive batch descends the transmit nodes of the
     same pass, so LDLP pays far fewer transmit-side working-set reloads
     per wire message than the per-message conventional schedule. *)
  List.iter
    (fun (name, (r : Ldlp_model.Simrun.result), _, _, _) ->
      if r.Ldlp_model.Simrun.tx_runs > 0 then
        Printf.printf
          "%-20s cross-direction amortisation: %.2f wire msgs per tx-side \
           switch (%d msgs / %d switches)\n"
          name
          (float_of_int r.Ldlp_model.Simrun.tx_msgs
          /. float_of_int r.Ldlp_model.Simrun.tx_runs)
          r.Ldlp_model.Simrun.tx_msgs r.Ldlp_model.Simrun.tx_runs)
    measured;
  let imisses name =
    List.find_map
      (fun (n, (r : Ldlp_model.Simrun.result), _, _, _) ->
        if n = name then Some r.Ldlp_model.Simrun.imisses_per_msg else None)
      measured
    |> Option.get
  in
  let fewer_imisses what conv ldlp =
    if imisses ldlp >= imisses conv then
      [
        Printf.sprintf
          "LDLP should take fewer instruction misses per message than \
           conventional%s (got %.2f vs %.2f)"
          what (imisses ldlp) (imisses conv);
      ]
    else []
  in
  let row (name, (r : Ldlp_model.Simrun.result), off_s, _, allocs) =
    Schema.
      [
        S name; I r.Ldlp_model.Simrun.processed; F off_s;
        F r.Ldlp_model.Simrun.throughput; F r.Ldlp_model.Simrun.imisses_per_msg;
        F r.Ldlp_model.Simrun.dmisses_per_msg; F allocs;
        F r.Ldlp_model.Simrun.p50_latency; F r.Ldlp_model.Simrun.p99_latency;
        F r.Ldlp_model.Simrun.mean_batch;
      ]
  in
  {
    doc =
      Some
        ( Schema.hotpath,
          Schema.
            [ F hotpath_rate; I seed; F overhead_pct; Rows (List.map row measured) ]
        );
    failures =
      fewer_imisses "" "conventional" "ldlp"
      @ fewer_imisses " on the duplex host" "conventional-duplex" "ldlp-duplex"
      @ hotpath_failures
          (List.map
             (fun (name, (r : Ldlp_model.Simrun.result), _, _, allocs) ->
               (name, (allocs, r.Ldlp_model.Simrun.throughput)))
             measured);
  }

(* Words allocated so far: minor words plus the words allocated straight
   into the major heap (major minus promoted), where an array of more than
   256 words goes without passing through the minor heap.  The
   [q93b-stack], [tcp-stack] and [mesh-storm] rows count both.  The minor
   count is [Gc.minor_words]: on OCaml 5.1, [Gc.counters]' counts what
   the current minor heap holds as an eighth of its words (4,000 two-word
   conses read 1,501 words), and is exact only just after a minor
   collection. *)
let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Q.93B signalling stack: minor and direct-major words per caller
   message through [Layers.stack] under an LDLP receive chain, counting
   everything the path allocates (the received mbuf and message,
   decoding, the call table, replies and SSCOP acks).  Each call is a SETUP and a
   CONNECT_ACK, and its RELEASE comes [q93b_held] calls later, so a few
   thousand calls are live at once, the call table's steady state under
   real holding times.  The caller acks the switch's frames every 8
   messages; frames arrive in bursts of 32.  With a tuple-keyed
   polymorphic call table and a copying layer hand-off the stack
   allocated ~364 words/msg here; with integer keys and in-place
   hand-off ~126, and with the calls in a flat table ~121 minor words
   (~124 with the ~3 direct-major words of the growing call rows and
   index), so a budget of 200 catches a return to the old shape with
   headroom.

   The same run counts promoted words per message, which is where held
   calls show.  With a record and two [Hashtbl] cells per call, every
   held call was promoted: 6.03 words/msg.  With each call a row of int
   columns found through a flat int table the stack promotes 0.94 (SSCOP
   frames awaiting the caller's ack and messages queued between layers
   when a minor collection runs), so a budget of 2 catches a return to
   per-call heap blocks. *)
let q93b_calls = 12_000

let q93b_held = 4_000

let q93b_alloc_budget = 200.0

let q93b_promoted_budget = 2.0

let q93b_script () =
  let open Ldlp_sigproto in
  let tx = Sscop.create () in
  let frames = ref [] and sent = ref 0 and replies = ref 0 in
  let link f = Bytes.cat (Bytes.make 1 '\001') f in
  let send msg ~answers =
    frames := link (Sscop.send tx (Sigmsg.encode msg)) :: !frames;
    replies := !replies + answers;
    incr sent;
    if !sent mod 8 = 0 then
      frames :=
        link (Sscop.frame ~tag:'A' ~seq:(!replies land 0xFFFFFF) Bytes.empty)
        :: !frames
  in
  for k = 1 to q93b_calls + q93b_held do
    if k <= q93b_calls then begin
      send ~answers:2 (* CALL_PROCEEDING, CONNECT *)
        (Sigmsg.v ~call_ref:k Sigmsg.Setup
           [ Ie.called_party "local:80"; Ie.qos 1 ]);
      send ~answers:0 (Sigmsg.v ~call_ref:k Sigmsg.Connect_ack [])
    end;
    if k > q93b_held then
      send ~answers:1 (* RELEASE_COMPLETE *)
        (Sigmsg.v ~call_ref:(k - q93b_held) Sigmsg.Release [])
  done;
  Array.of_list (List.rev !frames)

(* Minor and promoted words per Q.93B message over one fresh stack, after
   one warm-up stack; exits on a stack that mishandles the script. *)
let q93b_stack_words () =
  let open Ldlp_sigproto in
  let frames = q93b_script () in
  let run () =
    let pool = Ldlp_buf.Pool.create () in
    let switch = Switch.create ~auto_answer:true ~routes:[] ~local_port:0 () in
    let st = Layers.stack ~pool ~switch () in
    let eng =
      Ldlp_core.Engine.rx_chain
        ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
        ~layers:st.Layers.layers ()
    in
    let peak = ref 0 in
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    let w0 = words_allocated () in
    Array.iteri
      (fun i raw ->
        Ldlp_core.Engine.inject eng ~node:0
          (Ldlp_core.Msg.make ~size:(Bytes.length raw)
             (Layers.Raw (Ldlp_buf.Mbuf.of_bytes pool raw)));
        if i land 31 = 31 then begin
          Ldlp_core.Engine.run eng;
          peak := max !peak (Switch.active_calls switch)
        end)
      frames;
    Ldlp_core.Engine.run eng;
    let words = words_allocated () -. w0 in
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. p0 in
    let s = Switch.stats switch and ps = Ldlp_buf.Pool.stats pool in
    if
      s.Switch.calls_released <> q93b_calls
      || s.Switch.protocol_errors <> 0
      || ps.Ldlp_buf.Pool.small_in_use <> 0
      || !peak < q93b_held
    then begin
      Printf.eprintf "FAIL: q93b-stack gate run mishandled its call script\n";
      exit 1
    end;
    let msgs = float_of_int (3 * q93b_calls) in
    (words /. msgs, promoted /. msgs)
  in
  ignore (run ());
  run ()

(* tcpmini stack: minor and direct-major words per received segment
   through a server [Host.duplex] under LDLP, counting everything the
   path allocates (the received mbuf and message, the three receive
   layers, the ACKs they send, the application's read and echo, and the
   wire).  The client side
   is scripted: [tcp_rpcs] 64 B requests over [tcp_conns] connections
   established in set-up, visited in a scrambled order, each request
   acknowledging every earlier response on its connection; frames arrive
   in bursts of 32, and the server echoes each request back.  With int32
   sequence numbers, a fresh result record and reply list per segment, a
   [Queue]-of-chunks socket buffer and a copying frame builder the stack
   allocated ~260 words per segment here; the allocation-light path
   allocated ~65, and ~54 since a response settles the ACK its request
   owed and the IP header check returns an int.  With each segment's PCB
   found through a [Flat] table rather than a hash table keyed by a
   boxed tuple it allocates ~42.25, so a budget of 50 catches a return
   to the tuple-keyed table (~12 words more).

   The same run counts the server's pure ACKs, and must count none: each
   burst's 32 requests go to 32 distinct connections ([tcp_conn] is a
   bijection), and every one is answered after the burst by a response
   that carries its ACK, so no second segment ever finds an ACK owed.
   A stack whose data sends leave the delayed ACK owed sends one pure ACK
   per two requests (16,384 here). *)
let tcp_conns = 4096

let tcp_rpcs = 8 * tcp_conns

let tcp_alloc_budget = 50.0

let tcp_server_ip = Ldlp_packet.Addr.Ipv4.of_string "192.0.2.1"

let tcp_client_ip = Ldlp_packet.Addr.Ipv4.of_string "192.0.2.10"

let tcp_port conn = 10_000 + conn

(* Request k goes to connection [tcp_conn k]: a bijection on each block of
   [tcp_conns] requests, so every connection carries [tcp_rpcs / tcp_conns]
   and consecutive requests use different connections. *)
let tcp_conn k = k * 1031 land (tcp_conns - 1)

(* The scripted client's frames: each connection's SYN and handshake ACK,
   and the requests, all built once as bytes. *)
let tcp_script pool host =
  let open Ldlp_packet in
  let frame ~conn ~seq ~ack ~flags ?payload () =
    let m =
      Ldlp_tcpmini.Host.client_frame host ~src_ip:tcp_client_ip
        ~src_port:(tcp_port conn) ~dst_port:80 ~seq ~ack ~flags ?payload ()
    in
    let raw = Ldlp_buf.Mbuf.to_bytes m in
    Ldlp_buf.Mbuf.free pool m;
    raw
  in
  let client_iss = 5000 and server_iss = Ldlp_tcpmini.Tcp_input.initial_send_seq in
  let syns =
    Array.init tcp_conns (fun c ->
        frame ~conn:c ~seq:client_iss ~ack:0 ~flags:Tcp.flag_syn ())
  in
  let acks =
    Array.init tcp_conns (fun c ->
        frame ~conn:c ~seq:(client_iss + 1) ~ack:(server_iss + 1) ~flags:Tcp.flag_ack ())
  in
  let sent = Array.make tcp_conns 0 in
  let requests =
    Array.init tcp_rpcs (fun k ->
        let c = tcp_conn k in
        let n = sent.(c) in
        sent.(c) <- n + 1;
        frame ~conn:c
          ~seq:(client_iss + 1 + (64 * n))
          ~ack:(server_iss + 1 + (64 * n))
          ~flags:(Tcp.flag_ack lor Tcp.flag_psh)
          ~payload:(Bytes.make 64 (Char.chr (65 + (k mod 26))))
          ())
  in
  (syns, acks, requests)

(* Minor words per received segment and the pure ACKs sent over one
   fresh server, after one warm-up server; exits on a stack that
   mishandles the script. *)
let tcp_stack_words () =
  let open Ldlp_tcpmini in
  let module Engine = Ldlp_core.Engine in
  let module Msg = Ldlp_core.Msg in
  let run () =
    let pool = Ldlp_buf.Pool.create () in
    let mp = Msg.pool () in
    let host =
      Host.create ~pool ~msg_pool:mp
        ~mac:(Ldlp_packet.Addr.Mac.of_string "02:00:00:00:00:01")
        ~ip:tcp_server_ip ()
    in
    ignore (Host.listen host ~port:80);
    let syns, acks, requests = tcp_script pool host in
    let responses = ref 0 in
    let eng =
      Host.duplex host
        ~discipline:(Engine.Ldlp Ldlp_core.Batch.paper_default)
        ~wire:(fun m -> Ldlp_buf.Mbuf.free pool m)
        ()
    in
    let inject node raw =
      let m = Ldlp_buf.Mbuf.of_bytes pool raw in
      Engine.inject eng ~node
        (Msg.acquire mp ~arrival:0. ~size:(Bytes.length raw) (Host.wrap host m))
    in
    let rx raw = inject (Engine.duplex_rx_entry eng) raw in
    Array.iter rx syns;
    Engine.run eng;
    Array.iter rx acks;
    Engine.run eng;
    let pcbs =
      Array.init tcp_conns (fun c ->
          Pcb.find (Host.table host) ~local_port:80 ~rip:tcp_client_ip
            ~rport:(tcp_port c))
    in
    (* The application: echo every complete request as a response. *)
    let serve c =
      let pcb = pcbs.(c) in
      while Sockbuf.length pcb.Pcb.sockbuf >= 64 do
        match Host.send host pcb (Sockbuf.read pcb.Pcb.sockbuf 64) with
        | Some frame ->
          incr responses;
          Engine.inject eng ~node:(Engine.duplex_tx_entry eng)
            (Msg.acquire mp ~arrival:0. ~size:(Ldlp_buf.Mbuf.length frame)
               (Host.wrap host frame))
        | None -> ()
      done
    in
    let delivered0 = (Host.counters host).Host.delivered_bytes in
    let acks0 = (Tcp_input.stats ()).Tcp_input.acks_sent in
    let w0 = words_allocated () in
    for burst = 0 to (tcp_rpcs / 32) - 1 do
      for k = 32 * burst to (32 * burst) + 31 do
        rx requests.(k)
      done;
      Engine.run eng;
      for k = 32 * burst to (32 * burst) + 31 do
        serve (tcp_conn k)
      done;
      Engine.run eng
    done;
    let words = words_allocated () -. w0 in
    let acks = (Tcp_input.stats ()).Tcp_input.acks_sent - acks0 in
    let ps = Ldlp_buf.Pool.stats pool in
    if
      Array.exists (fun p -> p.Pcb.state <> Pcb.Established) pcbs
      || (Host.counters host).Host.delivered_bytes - delivered0 <> 64 * tcp_rpcs
      || !responses <> tcp_rpcs
      || ps.Ldlp_buf.Pool.small_in_use + ps.Ldlp_buf.Pool.cluster_in_use <> 0
      || (Msg.pool_stats mp).Msg.p_outstanding <> 0
    then begin
      Printf.eprintf "FAIL: tcp-stack gate run mishandled its RPC script\n";
      exit 1
    end;
    (words /. float_of_int tcp_rpcs, acks)
  in
  ignore (run ());
  run ()

(* Mesh call storm: minor and direct-major words per call through
   [Mesh.run_storm_sharded] on one shard: a duplex storm on the sharded
   storm's mesh ([Ldlp_report.Shards]) of [mesh_pairs] pairs under
   [Mesh.chaos_plan], so the impairment engines drop, duplicate, corrupt
   and reorder.  The row is the marginal cost of a call: two storms on the
   same mesh, of [mesh_calls] and [2 * mesh_calls] calls per pair, and the
   difference in their words over the difference in completed calls, so
   topology generation and UNI endpoint creation, which both storms pay
   once, cancel: a field added to an endpoint does not move the row.  A
   call costs ~2,476 words.  Counted over a whole storm, set-up included,
   it read ~3,282 against a budget of 7,000, so a budget of 5,000 keeps
   about the same headroom: it fails when a call's own work allocates
   twice what it does now. *)
let mesh_pairs = 32

let mesh_calls = 8

let mesh_alloc_budget = 5000.0

(* Marginal minor and direct-major words per completed call, after one
   warm-up storm; exits on a storm that does not complete every call. *)
let mesh_storm_words () =
  let module Mesh = Ldlp_mesh.Mesh in
  let cfg =
    { (Ldlp_report.Shards.config ~seed) with Mesh.plan = Mesh.chaos_plan }
  in
  let storm calls =
    (Mesh.run_storm_sharded ~wiring:Mesh.Duplex ~shards:1 ~pairs:mesh_pairs
       ~calls_per_pair:calls cfg)
      .Mesh.ss_storm
  in
  let words calls =
    let w0 = words_allocated () in
    let s = storm calls in
    let w = words_allocated () -. w0 in
    if
      s.Mesh.calls_completed <> mesh_pairs * calls
      || not (s.Mesh.t_conserved && s.Mesh.t_leak_free)
    then begin
      Printf.eprintf "FAIL: mesh-storm gate run did not complete its storm\n";
      exit 1
    end;
    w
  in
  ignore (storm mesh_calls);
  let w1 = words mesh_calls in
  let w2 = words (2 * mesh_calls) in
  (w2 -. w1) /. float_of_int (mesh_pairs * mesh_calls)

(* The regression gate alone (`--alloc-gate`): one metrics-on run per
   configuration — allocs/msg and simulated throughput are deterministic,
   so a single run measures them exactly; skipping the best-of-5
   wall-clock sampling of the full hot-path report makes the gate cheap
   enough to sit inside `make check`. *)
let bench_alloc_gate () =
  let rows =
    List.map
      (fun ((name, _, _) as config) ->
        let r, allocs = metered config in
        (name, (allocs, r.Ldlp_model.Simrun.throughput)))
      hotpath_configs
  in
  Printf.printf "Allocation gate @ %.0f msg/s (seed %d)\n" hotpath_rate seed;
  Printf.printf "%-20s %12s %12s\n" "discipline" "allocs/msg" "msg/s";
  List.iter
    (fun (name, (allocs, rate)) ->
      Printf.printf "%-20s %12.2f %12.1f\n" name allocs rate)
    rows;
  let q93b, q93b_promoted = q93b_stack_words () in
  Printf.printf "%-20s %12.2f %12s  (%.2f promoted words/msg)\n" "q93b-stack" q93b
    "-" q93b_promoted;
  let tcp, tcp_acks = tcp_stack_words () in
  Printf.printf "%-20s %12.2f %12s  (%d pure ACKs over %d RPCs)\n" "tcp-stack"
    tcp "-" tcp_acks tcp_rpcs;
  let mesh = mesh_storm_words () in
  Printf.printf "%-20s %12.2f %12s\n" "mesh-storm" mesh "-";
  let gate ok msg = if ok then [] else [ msg ] in
  {
    doc = None;
    failures =
      hotpath_failures rows
      @ gate (q93b < q93b_alloc_budget)
          (Printf.sprintf
             "Q.93B stack allocates %.2f minor words per message with %d \
              calls held (budget < %.0f)"
             q93b q93b_held q93b_alloc_budget)
      @ gate (q93b_promoted < q93b_promoted_budget)
          (Printf.sprintf
             "Q.93B stack promotes %.2f words per message with %d calls held \
              (budget < %.0f)"
             q93b_promoted q93b_held q93b_promoted_budget)
      @ gate (tcp < tcp_alloc_budget)
          (Printf.sprintf
             "tcpmini stack allocates %.2f minor words per received segment \
              over %d connections (budget < %.0f)"
             tcp tcp_conns tcp_alloc_budget)
      @ gate (tcp_acks = 0)
          (Printf.sprintf
             "tcpmini server sent %d pure ACKs over %d RPCs whose responses \
              carry every ACK owed (expected 0)"
             tcp_acks tcp_rpcs)
      @ gate (mesh < mesh_alloc_budget)
          (Printf.sprintf
             "mesh call storm allocates %.2f words per added call (budget \
              < %.0f)"
             mesh mesh_alloc_budget);
  }

(* Sharded call storm -> BENCH_shards.json: the rows and deterministic
   gates of [Ldlp_report.Shards], each row's storm also timed on the wall
   clock (best of 3).  Wall clock is only meaningful with real parallel
   hardware: on a single-core host the sharded runs add domain overhead
   for no wall-time return, so that gate stays off there. *)
let bench_shards () =
  let module Shards = Ldlp_report.Shards in
  let s = Shards.run ~seed in
  let wall_s =
    List.map
      (fun (r : Shards.row) ->
        snd (best_of 3 (fun () -> Shards.storm ~seed ~shards:r.shards)))
      s.rows
  in
  let cores = Domain.recommended_domain_count () in
  Printf.printf "Sharded call storm, wall clock on %d cores\n" cores;
  let wall_gate =
    match wall_s with
    | one :: (_ :: _ as rest) ->
      let best = List.fold_left Float.min infinity rest in
      if cores >= 2 && best >= one *. 1.05 then
        [
          Printf.sprintf
            "no sharded wall-clock win on a %d-core host: best %.4f s vs %.4f s \
             single-shard"
            cores best one;
        ]
      else []
    | _ -> []
  in
  {
    doc = Some (Shards.doc s ~host_cores:cores ~wall_s);
    failures = s.failures @ wall_gate;
  }

(* ------------------------------------------------------------------ *)
(* Section 3: Bechamel tests.                                          *)
(* ------------------------------------------------------------------ *)

(* One reduced-size generator invocation per table/figure. *)

let one_point discipline =
  let make_source rng =
    Ldlp_traffic.Source.limit_time
      (Ldlp_traffic.Poisson.source ~rng ~rate:6000.0 ())
      bench_params.Ldlp_model.Params.seconds
  in
  fun () ->
    Ldlp_model.Simrun.run_avg ~params:bench_params ~discipline ~seed
      ~make_source ()

let test_table1 =
  Test.make ~name:"table1:trace+analysis"
    (Staged.stage (fun () ->
         let s = Ldlp_trace.Synth.generate () in
         Ldlp_trace.Analyze.table1 s.Ldlp_trace.Synth.trace))

let test_table3 =
  let s = Ldlp_trace.Synth.generate () in
  Test.make ~name:"table3:line-size-sweep"
    (Staged.stage (fun () ->
         Ldlp_trace.Analyze.line_size_sweep s.Ldlp_trace.Synth.trace))

let test_fig1 =
  let s = Ldlp_trace.Synth.generate () in
  Test.make ~name:"fig1:phase-analysis"
    (Staged.stage (fun () -> Ldlp_trace.Analyze.phases s.Ldlp_trace.Synth.trace))

let test_fig5_conv =
  Test.make ~name:"fig5/6:sim-point-conventional"
    (Staged.stage (one_point Ldlp_model.Simrun.Conventional))

let test_fig5_ldlp =
  Test.make ~name:"fig5/6:sim-point-ldlp"
    (Staged.stage (one_point Ldlp_model.Simrun.Ldlp))

let test_fig7 =
  Test.make ~name:"fig7:sim-point-20MHz"
    (Staged.stage (fun () ->
         let make_source rng =
           Ldlp_traffic.Source.limit_time
             (Ldlp_traffic.Onoff.source ~rng ())
             bench_params.Ldlp_model.Params.seconds
         in
         Ldlp_model.Simrun.run_avg ~params:bench_params
           ~discipline:Ldlp_model.Simrun.Ldlp ~seed ~make_source
           ~clock_hz:20e6 ()))

let test_fig8 =
  Test.make ~name:"fig8:cksum-study"
    (Staged.stage (fun () -> Ldlp_model.Cksum_study.series ()))

(* Real-code microbenches. *)

let payload_1500 = Bytes.init 1500 (fun i -> Char.chr (i land 0xFF))

let test_cksum_simple =
  Test.make ~name:"cksum:simple-1500B"
    (Staged.stage (fun () -> Ldlp_packet.Cksum.simple payload_1500 0 1500))

let test_cksum_unrolled =
  Test.make ~name:"cksum:unrolled-1500B"
    (Staged.stage (fun () -> Ldlp_packet.Cksum.unrolled payload_1500 0 1500))

let bench_pool = Ldlp_buf.Pool.create ()

let test_cksum_chain =
  let chain = Ldlp_buf.Mbuf.of_bytes bench_pool payload_1500 in
  Test.make ~name:"cksum:chain-1500B"
    (Staged.stage (fun () -> Ldlp_packet.Cksum.unrolled_chain chain))

let test_mbuf_cycle =
  let data = Bytes.create 552 in
  Test.make ~name:"mbuf:of_bytes+free-552B"
    (Staged.stage (fun () ->
         let m = Ldlp_buf.Mbuf.of_bytes bench_pool data in
         Ldlp_buf.Mbuf.free bench_pool m))

let test_sigmsg_codec =
  let m =
    Ldlp_sigproto.Sigmsg.v ~call_ref:77 Ldlp_sigproto.Sigmsg.Setup
      [ Ldlp_sigproto.Ie.called_party "host-b:42"; Ldlp_sigproto.Ie.qos 1 ]
  in
  Test.make ~name:"sigproto:encode+decode"
    (Staged.stage (fun () ->
         Result.get_ok (Ldlp_sigproto.Sigmsg.decode (Ldlp_sigproto.Sigmsg.encode m))))

(* One call lifecycle (SETUP, CONNECT_ACK, RELEASE) per run.  With [held]
   > 0 a run sets up call k but releases call k - held, so the switch
   keeps [held] calls live, as one with real holding times does; the
   plain flood never holds a call. *)
let switch_lifecycle ~held =
  let open Ldlp_sigproto in
  let sw = Switch.create ~auto_answer:true ~routes:[] ~local_port:0 () in
  let n = ref 0 in
  let call_ref k = (k mod 0x7FFFF0) + 1 in
  let set_up () =
    incr n;
    let call_ref = call_ref !n in
    ignore
      (Switch.handle sw ~port:1
         (Sigmsg.v ~call_ref Sigmsg.Setup [ Ie.called_party "x" ]));
    ignore (Switch.handle sw ~port:1 (Sigmsg.v ~call_ref Sigmsg.Connect_ack []))
  in
  for _ = 1 to held do
    set_up ()
  done;
  Test.make
    ~name:
      (if held = 0 then "sigproto:switch-call-lifecycle"
       else Printf.sprintf "sigproto:switch-lifecycle-%dk-held" (held / 1000))
    (Staged.stage (fun () ->
         set_up ();
         ignore
           (Switch.handle sw ~port:1
              (Sigmsg.v ~call_ref:(call_ref (!n - held)) Sigmsg.Release []))))

let test_switch_lifecycle = switch_lifecycle ~held:0

let test_switch_lifecycle_held = switch_lifecycle ~held:12_000

let test_sscop_roundtrip =
  let a = Ldlp_sigproto.Sscop.create () and b = Ldlp_sigproto.Sscop.create () in
  let payload = Bytes.create 100 in
  Test.make ~name:"sscop:sd+ack-roundtrip"
    (Staged.stage (fun () ->
         let f = Ldlp_sigproto.Sscop.send a payload in
         (match Ldlp_sigproto.Sscop.on_receive b f with
         | Ldlp_sigproto.Sscop.Deliver _ -> ()
         | _ -> assert false);
         ignore
           (Ldlp_sigproto.Sscop.on_receive a (Ldlp_sigproto.Sscop.make_ack b))))

let test_reassembly =
  let header =
    {
      Ldlp_packet.Ipv4.ihl = 5;
      tos = 0;
      total_length = 0;
      ident = 1;
      dont_fragment = false;
      more_fragments = false;
      fragment_offset = 0;
      ttl = 64;
      protocol = Ldlp_packet.Ipv4.proto_udp;
      src = Ldlp_packet.Addr.Ipv4.of_string "10.0.0.1";
      dst = Ldlp_packet.Addr.Ipv4.of_string "10.0.0.2";
    }
  in
  let payload = Bytes.create 4000 in
  let frags = Ldlp_packet.Reasm.fragment ~mtu:576 ~header ~payload in
  Test.make ~name:"ip:fragment+reassemble-4KB"
    (Staged.stage (fun () ->
         let r = Ldlp_packet.Reasm.create () in
         List.iter
           (fun (h, p) -> ignore (Ldlp_packet.Reasm.input r ~now:0.0 h p))
           frags))

(* Scheduler overhead: the same 4-layer passthrough stack, per message. *)
let sched_bench discipline name =
  let layers =
    List.init 4 (fun i -> Ldlp_core.Layer.passthrough (Printf.sprintf "L%d" i))
  in
  let eng = Ldlp_core.Engine.rx_chain ~discipline ~layers () in
  Test.make ~name
    (Staged.stage (fun () ->
         for _ = 1 to 16 do
           Ldlp_core.Engine.inject eng ~node:0 (Ldlp_core.Msg.make ~size:552 ())
         done;
         Ldlp_core.Engine.run eng))

let test_sched_conventional =
  sched_bench Ldlp_core.Engine.Conventional "sched:conventional-16msgs"

let test_sched_ldlp =
  sched_bench
    (Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
    "sched:ldlp-16msgs"

let tests =
  Test.make_grouped ~name:"ldlp"
    [
      test_table1;
      test_table3;
      test_fig1;
      test_fig5_conv;
      test_fig5_ldlp;
      test_fig7;
      test_fig8;
      test_cksum_simple;
      test_cksum_unrolled;
      test_cksum_chain;
      test_mbuf_cycle;
      test_sigmsg_codec;
      test_switch_lifecycle;
      test_switch_lifecycle_held;
      test_sscop_roundtrip;
      test_reassembly;
      test_sched_conventional;
      test_sched_ldlp;
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols with Some r -> r | None -> nan
        in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  Printf.printf "\nMicrobenchmarks (monotonic clock, OLS on run count)\n";
  Printf.printf "%-40s %14s %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun (name, ns, r2) ->
      Printf.printf "%-40s %12s/run %8.4f\n" name
        (Ldlp_sim.Table.fmt_si (ns *. 1e-9) ^ "s")
        r2)
    rows

(* Each experiment: its flag, the file its document goes to, and its run. *)
let experiments =
  [
    ("--sweeps", Some "BENCH_sweeps.json", bench_sweeps);
    ("--hotpath", Some "BENCH_hotpath.json", bench_hotpath);
    ("--alloc-gate", None, bench_alloc_gate);
    ("--shards", Some "BENCH_shards.json", bench_shards);
  ]

(* Any other argument is refused, so a mistyped or retired flag cannot
   fall through to the full reproduction and pass without a gate. *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let known =
    List.map (fun (flag, _, _) -> flag) experiments @ [ "--bench-only"; "--repro-only" ]
  in
  (match List.filter (fun a -> not (List.mem a known)) args with
  | [] -> ()
  | unknown ->
    List.iter (Printf.eprintf "unknown argument: %s\n") unknown;
    Printf.eprintf
      "known flags: %s\n(soak, mesh, recovery and flows run through \
       `ldlp_repro <name>`)\n"
      (String.concat " " known);
    exit 2);
  let has flag = List.mem flag args in
  match List.find_opt (fun (flag, _, _) -> has flag) experiments with
  | Some (flag, out, run) ->
    let o = run () in
    (* The document is written before any gate can fail, so a failing run
       leaves its numbers behind. *)
    (match (out, o.doc) with
    | Some path, Some doc -> Ldlp_report.Experiment.write path doc
    | _ -> ());
    List.iter (Printf.eprintf "FAIL: %s\n") o.failures;
    if o.failures <> [] then begin
      Printf.eprintf "FAIL: %s gates did not hold\n" flag;
      exit 1
    end;
    Printf.printf "%s gates: ok\n" flag
  | None ->
    if not (has "--bench-only") then reproduce ();
    if not (has "--repro-only") then run_benchmarks ()
