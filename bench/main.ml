(* Benchmark harness.

   Two sections:

   1. {b Reproduction} — regenerates every table and figure of the paper at
      the default (quick) fidelity and prints them with the paper's
      published values alongside.  `bin/ldlp_repro` exposes the same
      generators with full-fidelity knobs (`--full` = 100 layouts x 1 s).

   2. {b Microbenchmarks} — one Bechamel [Test.make] per table/figure (a
      reduced-size run of its generator, so regressions in the simulator
      itself are visible), plus wall-clock benches of the real code paths:
      both checksum routines, mbuf operations, the signalling codec and
      switch, and the LDLP engine against the conventional discipline. *)

open Bechamel
open Toolkit

let quick = Ldlp_model.Params.quick

let bench_params = { quick with Ldlp_model.Params.runs = 1; seconds = 0.05 }

let seed = 1996

(* ------------------------------------------------------------------ *)
(* Section 1: reproduction output.                                     *)
(* ------------------------------------------------------------------ *)

let reproduce () =
  let banner title =
    Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')
  in
  banner "Reproduction: tables";
  print_endline (Ldlp_report.Report.table1 (Ldlp_model.Figures.table1 ()));
  print_endline (Ldlp_report.Report.table3 (Ldlp_model.Figures.table3 ()));
  let phases, funcs = Ldlp_model.Figures.figure1 () in
  print_endline (Ldlp_report.Report.figure1 phases funcs);
  banner "Reproduction: figures 5 and 6 (Poisson rate sweep)";
  let points = Ldlp_model.Figures.rate_sweep ~params:quick ~seed () in
  print_endline (Ldlp_report.Report.fig5 points);
  print_endline (Ldlp_report.Report.fig6 points);
  banner "Reproduction: figure 7 (clock sweep, self-similar traffic)";
  print_endline
    (Ldlp_report.Report.fig7 (Ldlp_model.Figures.clock_sweep ~params:quick ~seed ()));
  banner "Reproduction: figure 8 (checksum study)";
  print_endline (Ldlp_report.Report.fig8 (Ldlp_model.Figures.fig8 ()));
  banner "Section 3.2 blocking analysis";
  let p = Ldlp_model.Params.paper in
  let shape =
    {
      Ldlp_core.Blocking.layer_code_bytes =
        List.init p.Ldlp_model.Params.layers (fun _ -> p.Ldlp_model.Params.layer_code_bytes);
      layer_data_bytes =
        List.init p.Ldlp_model.Params.layers (fun _ -> p.Ldlp_model.Params.layer_data_bytes);
      msg_bytes = p.Ldlp_model.Params.msg_bytes;
      cycles_per_msg =
        p.Ldlp_model.Params.layers
        * Ldlp_model.Params.cycles_per_layer p ~msg_bytes:p.Ldlp_model.Params.msg_bytes;
    }
  in
  print_endline
    (Ldlp_report.Report.blocking
       (Ldlp_core.Blocking.recommend Ldlp_core.Blocking.paper_machine shape));
  banner "Ablations (Section 5)";
  print_endline
    (Ldlp_report.Report.ablation_batch
       (Ldlp_model.Figures.ablation_batch ~params:quick ~seed ()));
  print_endline
    (Ldlp_report.Report.ablation_density
       (Ldlp_model.Figures.ablation_density ~params:quick ~seed ()));
  print_endline
    (Ldlp_report.Report.ablation_linesize
       (Ldlp_model.Figures.ablation_linesize ~params:quick ~seed ()));
  print_endline
    (Ldlp_report.Report.ablation_dilution (Ldlp_model.Figures.ablation_dilution ()));
  print_endline
    (Ldlp_report.Report.ablation_relayout (Ldlp_model.Figures.ablation_relayout ()));
  print_endline
    (Ldlp_report.Report.ablation_associativity
       (Ldlp_model.Figures.ablation_associativity ~params:quick ~seed ()));
  print_endline
    (Ldlp_report.Report.ablation_prefetch
       (Ldlp_model.Figures.ablation_prefetch ~params:quick ~seed ()));
  print_endline
    (Ldlp_report.Report.ablation_unified
       (Ldlp_model.Figures.ablation_unified ~params:quick ~seed ()));
  print_endline
    (Ldlp_report.Report.ablation_layout
       (Ldlp_model.Figures.ablation_layout ~params:quick ~seed ()));
  banner "Extension: transmit-side LDLP";
  print_endline
    (Ldlp_report.Report.extension_txside
       (Ldlp_model.Figures.extension_txside ~params:quick ~seed ()));
  banner "Comparison: conventional vs ILP vs LDLP";
  print_endline
    (Ldlp_report.Report.comparison_ilp
       (Ldlp_model.Figures.comparison_ilp ~params:quick ~seed ()));
  banner "Goal check: Section 1 signalling target";
  print_endline
    (Ldlp_report.Report.extension_goal
       (Ldlp_model.Figures.extension_goal ~seed ~runs:3 ()));
  banner "Ablation: layer granularity (Section 6 grouping advice)";
  print_endline
    (Ldlp_report.Report.ablation_granularity
       (Ldlp_model.Figures.ablation_granularity ~seed ~runs:3 ()));
  banner "Extension: LDLP on the real Table 1 TCP/IP footprints";
  print_endline
    (Ldlp_report.Report.extension_tcp_stack
       (Ldlp_model.Figures.extension_tcp_stack ~seed ~runs:3 ()))

(* ------------------------------------------------------------------ *)
(* Section 1b: sweep wall-clock benchmark -> BENCH_sweeps.json.        *)
(* ------------------------------------------------------------------ *)

(* Each sweep generator is timed end to end at [domains = 1] and at the
   resolved parallel domain count, and both wall clocks land in
   [BENCH_sweeps.json] so future PRs have a perf trajectory to compare
   against.  The parallel run goes first so the sequential run cannot look
   artificially good on a cold allocator. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let sweep_timings () =
  let domains = max 2 (Ldlp_par.Pool.available_domains ()) in
  let time name f =
    let par_pts, par_seconds = wall (fun () -> f ~domains) in
    let seq_pts, seq_seconds = wall (fun () -> f ~domains:1) in
    assert (par_pts = seq_pts);
    {
      Ldlp_report.Bench_json.name;
      points = List.length seq_pts;
      seq_seconds;
      par_seconds;
      domains;
    }
  in
  [
    time "rate_sweep" (fun ~domains ->
        Ldlp_model.Figures.rate_sweep ~domains ~params:quick ~seed ());
    time "clock_sweep" (fun ~domains ->
        Ldlp_model.Figures.clock_sweep ~domains ~params:quick ~seed ());
    time "ablation_batch" (fun ~domains ->
        Ldlp_model.Figures.ablation_batch ~domains ~params:quick ~seed ());
    time "comparison_ilp" (fun ~domains ->
        Ldlp_model.Figures.comparison_ilp ~domains ~params:quick ~seed ());
  ]

let bench_sweeps ~out () =
  let sweeps = sweep_timings () in
  let json =
    Ldlp_report.Bench_json.render
      ~host_cores:(Domain.recommended_domain_count ())
      ~sweeps
  in
  (match Ldlp_report.Bench_json.parse json with
  | Ok _ -> ()
  | Error e -> failwith ("BENCH_sweeps.json fails its own schema: " ^ e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "Sweep wall clock (parallel determinism-checked separately)\n";
  Printf.printf "%-20s %6s %12s %12s %8s\n" "sweep" "points" "1 domain"
    "N domains" "speedup";
  List.iter
    (fun s ->
      Printf.printf "%-20s %6d %10.3f s %10.3f s %7.2fx (%d domains)\n"
        s.Ldlp_report.Bench_json.name s.Ldlp_report.Bench_json.points
        s.Ldlp_report.Bench_json.seq_seconds
        s.Ldlp_report.Bench_json.par_seconds
        (Ldlp_report.Bench_json.speedup s)
        s.Ldlp_report.Bench_json.domains)
    sweeps;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Section 1c: hot-path baseline -> BENCH_hotpath.json.                *)
(* ------------------------------------------------------------------ *)

(* Conventional vs LDLP on the Figure 5 under-load point (9000 msg/s,
   where batching matters), each timed twice: once metrics-off (the
   wall_seconds future PRs diff against) and once with a metric sheet
   attached, which supplies the real per-message allocation counts and
   prices the instrumentation itself.  The simulation is deterministic,
   so the two runs must agree on every simulated number — checked. *)

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
let gate_hotpath rows =
  let failed = ref false in
  List.iter
    (fun (name, budget, baseline) ->
      match List.assoc_opt name rows with
      | None ->
        Printf.eprintf "FAIL: hot-path gate: no row for %s\n" name;
        failed := true
      | Some (allocs, rate) ->
        if allocs >= budget then begin
          Printf.eprintf
            "FAIL: %s allocates %.2f minor words/msg in layer handlers \
             (budget < %.0f)\n"
            name allocs budget;
          failed := true
        end;
        let floor = 0.99 *. baseline in
        if rate < floor then begin
          Printf.eprintf
            "FAIL: %s simulated throughput %.1f msg/s regressed below the \
             baseline floor %.1f msg/s\n"
            name rate floor;
          failed := true
        end)
    hotpath_budgets;
  if !failed then exit 1

let bench_hotpath ~out () =
  let params = quick in
  let make_source rng =
    Ldlp_traffic.Source.limit_time
      (Ldlp_traffic.Poisson.source ~rng ~rate:hotpath_rate
         ~size:params.Ldlp_model.Params.msg_bytes ())
      params.Ldlp_model.Params.seconds
  in
  let names = Ldlp_model.Simrun.layer_names params in
  (* The runs are short, so a single wall-clock sample is at the mercy of
     the host scheduler; the simulation is deterministic, so best-of-N is
     the honest estimator for both sides of the overhead ratio. *)
  let best_of n f =
    let r, s0 = wall f in
    let best = ref s0 in
    for _ = 2 to n do
      let r', s = wall f in
      assert (r' = r);
      if s < !best then best := s
    done;
    (r, !best)
  in
  let duplex_names = Ldlp_core.Engine.duplex_layer_names names in
  let measure (name, direction, discipline) =
    let sheet_names =
      match direction with `Duplex -> duplex_names | _ -> names
    in
    let r_off, off_s =
      best_of 5 (fun () ->
          Ldlp_model.Simrun.run_avg ~direction ~params ~discipline ~seed
            ~make_source ())
    in
    (* Fresh sheet per repetition so the kept counters cover exactly one
       run; the simulation is deterministic, so every repetition fills an
       identical sheet and keeping the last is keeping any. *)
    let sheet =
      ref (Ldlp_obs.Metrics.create ~label:name ~layer_names:sheet_names)
    in
    let r_on, on_s =
      Ldlp_obs.Obs.with_enabled true (fun () ->
          best_of 5 (fun () ->
              let m =
                Ldlp_obs.Metrics.create ~label:name ~layer_names:sheet_names
              in
              let r =
                Ldlp_model.Simrun.run_avg ~direction ~params ~discipline ~seed
                  ~make_source ~metrics:m ()
              in
              sheet := m;
              r))
    in
    if r_on <> r_off then
      failwith (name ^ ": attaching metrics changed the simulation");
    let totals = Ldlp_obs.Metrics.totals !sheet in
    let per n =
      if r_off.Ldlp_model.Simrun.processed = 0 then 0.0
      else float_of_int n /. float_of_int r_off.Ldlp_model.Simrun.processed
    in
    ( {
        Ldlp_report.Bench_json.h_name = name;
        messages = r_off.Ldlp_model.Simrun.processed;
        wall_seconds = off_s;
        messages_per_sec = r_off.Ldlp_model.Simrun.throughput;
        imisses_per_msg = r_off.Ldlp_model.Simrun.imisses_per_msg;
        dmisses_per_msg = r_off.Ldlp_model.Simrun.dmisses_per_msg;
        allocs_per_msg = per totals.Ldlp_obs.Metrics.t_minor_words;
        p50_latency_s = r_off.Ldlp_model.Simrun.p50_latency;
        p99_latency_s = r_off.Ldlp_model.Simrun.p99_latency;
        mean_batch = r_off.Ldlp_model.Simrun.mean_batch;
      },
      off_s,
      on_s,
      r_off )
  in
  let measured = List.map measure hotpath_configs in
  let hots = List.map (fun (h, _, _, _) -> h) measured in
  let off_total = List.fold_left (fun a (_, o, _, _) -> a +. o) 0.0 measured in
  let on_total = List.fold_left (fun a (_, _, o, _) -> a +. o) 0.0 measured in
  let overhead_pct =
    if off_total > 0.0 then (on_total -. off_total) /. off_total *. 100.0
    else 0.0
  in
  let json =
    Ldlp_report.Bench_json.render_hotpath ~rate:hotpath_rate ~seed
      ~metrics_overhead_pct:overhead_pct hots
  in
  (match Ldlp_report.Bench_json.parse_hotpath json with
  | Ok _ -> ()
  | Error e -> failwith ("BENCH_hotpath.json fails its own schema: " ^ e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "Hot path @ %.0f msg/s (%d runs x %.2f s, seed %d)\n"
    hotpath_rate params.Ldlp_model.Params.runs
    params.Ldlp_model.Params.seconds seed;
  Printf.printf "%-14s %9s %10s %10s %10s %11s %11s\n" "discipline" "msgs"
    "msg/s" "imiss/msg" "dmiss/msg" "allocs/msg" "p99 lat";
  List.iter
    (fun (h : Ldlp_report.Bench_json.hot) ->
      Printf.printf "%-14s %9d %10.0f %10.2f %10.2f %11.1f %9.2f ms\n"
        h.Ldlp_report.Bench_json.h_name h.Ldlp_report.Bench_json.messages
        h.Ldlp_report.Bench_json.messages_per_sec
        h.Ldlp_report.Bench_json.imisses_per_msg
        h.Ldlp_report.Bench_json.dmisses_per_msg
        h.Ldlp_report.Bench_json.allocs_per_msg
        (h.Ldlp_report.Bench_json.p99_latency_s *. 1e3))
    hots;
  Printf.printf "metrics-on overhead: %+.1f%% wall clock\n" overhead_pct;
  (* Cross-direction amortisation: under duplex, reply traffic generated
     while draining a receive batch descends the transmit nodes of the
     same pass, so LDLP pays far fewer transmit-side working-set reloads
     per wire message than the per-message conventional schedule. *)
  let amort (r : Ldlp_model.Simrun.result) =
    if r.Ldlp_model.Simrun.tx_runs = 0 then 0.0
    else
      float_of_int r.Ldlp_model.Simrun.tx_msgs
      /. float_of_int r.Ldlp_model.Simrun.tx_runs
  in
  List.iter
    (fun (h, _, _, r) ->
      if r.Ldlp_model.Simrun.tx_runs > 0 then
        Printf.printf
          "%-20s cross-direction amortisation: %.2f wire msgs per tx-side \
           switch (%d msgs / %d switches)\n"
          h.Ldlp_report.Bench_json.h_name (amort r)
          r.Ldlp_model.Simrun.tx_msgs r.Ldlp_model.Simrun.tx_runs)
    measured;
  let check_pair what (conv : Ldlp_report.Bench_json.hot)
      (ldlp : Ldlp_report.Bench_json.hot) =
    if
      ldlp.Ldlp_report.Bench_json.imisses_per_msg
      >= conv.Ldlp_report.Bench_json.imisses_per_msg
    then begin
      Printf.eprintf
        "FAIL: LDLP should take fewer instruction misses per message than \
         conventional%s (got %.2f vs %.2f)\n"
        what ldlp.Ldlp_report.Bench_json.imisses_per_msg
        conv.Ldlp_report.Bench_json.imisses_per_msg;
      exit 1
    end
  in
  (match hots with
  | [ conv; ldlp; conv_dx; ldlp_dx ] ->
    check_pair "" conv ldlp;
    check_pair " on the duplex host" conv_dx ldlp_dx
  | _ -> assert false);
  gate_hotpath
    (List.map
       (fun (h : Ldlp_report.Bench_json.hot) ->
         ( h.Ldlp_report.Bench_json.h_name,
           ( h.Ldlp_report.Bench_json.allocs_per_msg,
             h.Ldlp_report.Bench_json.messages_per_sec ) ))
       hots);
  Printf.printf "allocation and throughput budgets: ok\n";
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Section 1c': the regression gate alone (`--alloc-gate`).            *)
(* ------------------------------------------------------------------ *)

(* Q.93B signalling stack: minor words per caller message through
   [Layers.stack] under an LDLP receive chain, counting everything the
   path allocates (the received mbuf and message, decoding, the call
   table, replies and SSCOP acks).  Each call is a SETUP and a
   CONNECT_ACK, and its RELEASE comes [q93b_held] calls later, so a few
   thousand calls are live at once, the call table's steady state under
   real holding times.  The caller acks the switch's frames every 8
   messages; frames arrive in bursts of 32.  With a tuple-keyed
   polymorphic call table and a copying layer hand-off the stack
   allocated ~364 words/msg here; with integer keys and in-place
   hand-off it allocates ~126, so a budget of 200 catches a return to
   the old shape with headroom. *)
let q93b_calls = 12_000

let q93b_held = 4_000

let q93b_alloc_budget = 200.0

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

(* Minor words per Q.93B message over one fresh stack, after one warm-up
   stack; exits on a stack that mishandles the script. *)
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
    let w0 = Gc.minor_words () in
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
    let words = Gc.minor_words () -. w0 in
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
    words /. float_of_int (3 * q93b_calls)
  in
  ignore (run ());
  run ()

(* One metrics-on run per configuration — allocs/msg and simulated
   throughput are deterministic, so a single run measures them exactly;
   skipping the best-of-5 wall-clock sampling of the full hot-path
   report makes the gate cheap enough to sit inside `make check`. *)
let bench_alloc_gate () =
  let params = quick in
  let make_source rng =
    Ldlp_traffic.Source.limit_time
      (Ldlp_traffic.Poisson.source ~rng ~rate:hotpath_rate
         ~size:params.Ldlp_model.Params.msg_bytes ())
      params.Ldlp_model.Params.seconds
  in
  let names = Ldlp_model.Simrun.layer_names params in
  let duplex_names = Ldlp_core.Engine.duplex_layer_names names in
  let measure (name, direction, discipline) =
    let sheet_names =
      match direction with `Duplex -> duplex_names | _ -> names
    in
    let m = Ldlp_obs.Metrics.create ~label:name ~layer_names:sheet_names in
    let r =
      Ldlp_obs.Obs.with_enabled true (fun () ->
          Ldlp_model.Simrun.run_avg ~direction ~params ~discipline ~seed
            ~make_source ~metrics:m ())
    in
    let totals = Ldlp_obs.Metrics.totals m in
    let allocs =
      if r.Ldlp_model.Simrun.processed = 0 then 0.0
      else
        float_of_int totals.Ldlp_obs.Metrics.t_minor_words
        /. float_of_int r.Ldlp_model.Simrun.processed
    in
    (name, (allocs, r.Ldlp_model.Simrun.throughput))
  in
  let rows = List.map measure hotpath_configs in
  Printf.printf "Allocation gate @ %.0f msg/s (seed %d)\n" hotpath_rate seed;
  Printf.printf "%-20s %12s %12s\n" "discipline" "allocs/msg" "msg/s";
  List.iter
    (fun (name, (allocs, rate)) ->
      Printf.printf "%-20s %12.2f %12.1f\n" name allocs rate)
    rows;
  gate_hotpath rows;
  (* Sharded pipeline: minor words per delivered message through the full
     per-group stack + handoff path, run inline on this domain so the GC
     counter sees every allocation.  The budget covers the whole pipeline
     (pooled messages, handoff items, digest strings, report) — at ~133
     words/msg today, 192 leaves headroom while still catching a lost
     pool or a boxing regression. *)
  let shard_alloc_budget = 192.0 in
  let shard_spec =
    let groups = 4 in
    {
      Ldlp_shard.Stackwork.sp_groups = groups;
      sp_layers =
        Array.init groups (fun _ ->
            Ldlp_shard.Stackwork.[ Pass; Reply_every 4; Pass ]);
      sp_policy = Ldlp_core.Batch.paper_default;
      sp_init =
        Array.init groups (fun g -> List.init 128 (fun i -> ((g * 1000) + i, 3)));
      sp_seed = seed;
      sp_crash = [];
    }
  in
  ignore (Ldlp_shard.Stackwork.run ~shards:1 shard_spec);
  let w0 = Gc.minor_words () in
  let r = Ldlp_shard.Stackwork.run ~shards:1 shard_spec in
  let w1 = Gc.minor_words () in
  let _, delivered, _ = Ldlp_shard.Stackwork.totals r in
  let shard_allocs = (w1 -. w0) /. float_of_int (max 1 delivered) in
  Printf.printf "%-20s %12.2f %12s\n" "shard-pipeline" shard_allocs "-";
  if not (Ldlp_shard.Stackwork.ledger_ok r) then begin
    Printf.eprintf "FAIL: shard-pipeline gate run broke its own ledger\n";
    exit 1
  end;
  if shard_allocs >= shard_alloc_budget then begin
    Printf.eprintf
      "FAIL: shard pipeline allocates %.2f minor words per delivered message \
       (budget < %.0f)\n"
      shard_allocs shard_alloc_budget;
    exit 1
  end;
  let q93b = q93b_stack_words () in
  Printf.printf "%-20s %12.2f %12s\n" "q93b-stack" q93b "-";
  if q93b >= q93b_alloc_budget then begin
    Printf.eprintf
      "FAIL: Q.93B stack allocates %.2f minor words per message with %d \
       calls held (budget < %.0f)\n"
      q93b q93b_held q93b_alloc_budget;
    exit 1
  end;
  Printf.printf "allocation and throughput budgets: ok\n"

(* ------------------------------------------------------------------ *)
(* Section 1d: chaos-soak loss ladder -> BENCH_soak.json.              *)
(* ------------------------------------------------------------------ *)

(* One tcpmini echo soak (LDLP discipline) per frame-loss rate,
   symmetric on both directions of the link: how goodput decays and
   retransmissions grow as the paper's lossless-LAN assumption is
   relaxed.  Fully deterministic — simulated time, seeded impairment. *)

let soak_rates = [ 0.0; 0.01; 0.02; 0.05; 0.1 ]
let soak_chunks = 32
let soak_chunk_bytes = 64

let bench_soak ~out () =
  let rows = Ldlp_soak.Soak.loss_ladder ~seed ~rates:soak_rates in
  let srows =
    List.map
      (fun (r : Ldlp_soak.Soak.ladder_row) ->
        {
          Ldlp_report.Bench_json.sr_loss = r.Ldlp_soak.Soak.loss;
          sr_goodput = r.Ldlp_soak.Soak.goodput;
          sr_retransmits = r.Ldlp_soak.Soak.ladder_retransmits;
          sr_completion_s = r.Ldlp_soak.Soak.ladder_completion;
          sr_ok = r.Ldlp_soak.Soak.ok;
        })
      rows
  in
  let json =
    Ldlp_report.Bench_json.render_soak ~seed ~chunks:soak_chunks
      ~chunk_bytes:soak_chunk_bytes srows
  in
  (match Ldlp_report.Bench_json.parse_soak json with
  | Ok _ -> ()
  | Error e -> failwith ("BENCH_soak.json fails its own schema: " ^ e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf
    "Loss ladder: %d x %d-byte echo chunks, LDLP discipline (seed %d)\n"
    soak_chunks soak_chunk_bytes seed;
  Printf.printf "%-8s %16s %8s %14s %4s\n" "loss" "goodput" "rexmt"
    "completion" "ok";
  List.iter
    (fun (r : Ldlp_report.Bench_json.soak_row) ->
      Printf.printf "%6.1f%% %12.0f B/s %8d %12.4f s %4s\n"
        (r.Ldlp_report.Bench_json.sr_loss *. 100.0)
        r.Ldlp_report.Bench_json.sr_goodput
        r.Ldlp_report.Bench_json.sr_retransmits
        r.Ldlp_report.Bench_json.sr_completion_s
        (if r.Ldlp_report.Bench_json.sr_ok then "ok" else "FAIL"))
    srows;
  if not (List.for_all (fun r -> r.Ldlp_report.Bench_json.sr_ok) srows) then begin
    prerr_endline "FAIL: a soak ladder rung lost integrity or leaked mbufs";
    exit 1
  end;
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Section 1e: mesh sweep -> BENCH_mesh.json.                          *)
(* ------------------------------------------------------------------ *)

(* Host-count sweep of the many-host mesh: pristine spread rows at each
   size, one chaos row (the soak rung — faults active, leak audit on the
   message pool) at the middle size, and a Q.93B call-storm row per size
   against the paper's 10,000 pairs/s goal.  Everything runs on the
   simulator's two clocks, so the sweep is deterministic and the gates
   below are exact, not statistical. *)

let mesh_hosts = [ 64; 256; 1024 ]
let mesh_chaos_hosts = 256

let bench_mesh ~out () =
  let module Mesh = Ldlp_mesh.Mesh in
  let degree = 4 in
  let spread_row tag (s : Mesh.spread) =
    let cfg = s.Mesh.s_config in
    {
      Ldlp_report.Bench_json.mr_hosts = cfg.Mesh.hosts;
      mr_wiring = Mesh.wiring_name s.Mesh.s_wiring ^ tag;
      mr_delivered = s.Mesh.reach;
      mr_p50_s = Ldlp_sim.Hist.percentile s.Mesh.latency 0.50;
      mr_p90_s = Ldlp_sim.Hist.percentile s.Mesh.latency 0.90;
      mr_p99_s = Ldlp_sim.Hist.percentile s.Mesh.latency 0.99;
      mr_max_s = Ldlp_sim.Hist.max s.Mesh.latency;
      mr_mean_s = Ldlp_sim.Hist.mean s.Mesh.latency;
      mr_reloads = s.Mesh.reloads;
      mr_mean_batch = s.Mesh.mean_batch;
      mr_cpu_s = s.Mesh.cpu_seconds;
      mr_ok = s.Mesh.s_conserved && s.Mesh.leak_free;
    }
  in
  let storm_row hosts (t : Mesh.storm) =
    {
      Ldlp_report.Bench_json.ms_hosts = hosts;
      ms_wiring = Mesh.wiring_name t.Mesh.t_wiring;
      ms_pairs = t.Mesh.pairs;
      ms_calls = t.Mesh.calls_requested;
      ms_completed = t.Mesh.calls_completed;
      ms_wire_pairs_per_s = Mesh.storm_wire_rate t;
      ms_cpu_us_per_pair = Mesh.storm_cpu_us_per_pair t;
      ms_cpu_pairs_per_s = Mesh.storm_cpu_rate t;
      ms_ok = t.Mesh.t_conserved && t.Mesh.t_leak_free;
    }
  in
  let failed = ref false in
  let fail fmt = Printf.ksprintf (fun s -> Printf.eprintf "FAIL: %s\n" s;
                                   failed := true) fmt in
  let reloads_of wiring spreads =
    match
      List.find_opt (fun (s : Mesh.spread) -> s.Mesh.s_wiring = wiring) spreads
    with
    | Some s -> s.Mesh.reloads
    | None -> 0
  in
  let check_spreads what spreads =
    List.iter
      (fun (s : Mesh.spread) ->
        match Ldlp_check.Mesh_oracle.conservation s with
        | Ok () -> ()
        | Error d ->
          fail "%s [%s] conservation: %s" what
            (Mesh.wiring_name s.Mesh.s_wiring)
            (Format.asprintf "%a" Ldlp_check.Mesh_oracle.pp_divergence d))
      spreads;
    (match Ldlp_check.Mesh_oracle.equivalence spreads with
    | Ok () -> ()
    | Error d ->
      fail "%s equivalence: %s" what
        (Format.asprintf "%a" Ldlp_check.Mesh_oracle.pp_divergence d));
    let conv = reloads_of Mesh.Conv spreads
    and ldlp = reloads_of Mesh.Ldlp spreads in
    if ldlp >= conv then
      fail "%s: LDLP reloads %d not below conventional %d" what ldlp conv
  in
  let sweep hosts =
    let cfg = Mesh.config ~hosts ~degree ~seed () in
    let pristine = Mesh.compare_spread cfg in
    check_spreads (Printf.sprintf "mesh %d-host pristine" hosts) pristine;
    let chaos =
      if hosts <> mesh_chaos_hosts then []
      else begin
        let c = Mesh.compare_spread { cfg with Mesh.plan = Mesh.chaos_plan } in
        check_spreads (Printf.sprintf "mesh %d-host chaos" hosts) c;
        c
      end
    in
    let storms = Mesh.compare_storm cfg in
    List.iter
      (fun (t : Mesh.storm) ->
        if not (t.Mesh.t_conserved && t.Mesh.t_leak_free) then
          fail "mesh %d-host storm [%s] conservation/leak audit" hosts
            (Mesh.wiring_name t.Mesh.t_wiring))
      storms;
    ( List.map (spread_row "") pristine @ List.map (spread_row "+chaos") chaos,
      List.map (storm_row hosts) storms )
  in
  let swept = List.map sweep mesh_hosts in
  let spread = List.concat_map fst swept in
  let storm = List.concat_map snd swept in
  let json =
    Ldlp_report.Bench_json.render_mesh ~seed ~degree
      ~goal_pairs_per_s:Mesh.goal_pairs_per_sec ~spread ~storm
  in
  (match Ldlp_report.Bench_json.parse_mesh json with
  | Ok _ -> ()
  | Error e -> failwith ("BENCH_mesh.json fails its own schema: " ^ e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "Mesh sweep (degree %d, seed %d; chaos row at %d hosts)\n"
    degree seed mesh_chaos_hosts;
  Printf.printf "%-6s %-12s %9s %8s %8s %8s %9s %7s %10s %4s\n" "hosts"
    "wiring" "delivered" "p50" "p90" "p99" "reloads" "batch" "cpu" "ok";
  List.iter
    (fun (r : Ldlp_report.Bench_json.mesh_row) ->
      Printf.printf "%-6d %-12s %9d %7ss %7ss %7ss %9d %7.1f %9ss %4s\n"
        r.Ldlp_report.Bench_json.mr_hosts r.Ldlp_report.Bench_json.mr_wiring
        r.Ldlp_report.Bench_json.mr_delivered
        (Ldlp_sim.Table.fmt_si r.Ldlp_report.Bench_json.mr_p50_s)
        (Ldlp_sim.Table.fmt_si r.Ldlp_report.Bench_json.mr_p90_s)
        (Ldlp_sim.Table.fmt_si r.Ldlp_report.Bench_json.mr_p99_s)
        r.Ldlp_report.Bench_json.mr_reloads
        r.Ldlp_report.Bench_json.mr_mean_batch
        (Ldlp_sim.Table.fmt_si r.Ldlp_report.Bench_json.mr_cpu_s)
        (if r.Ldlp_report.Bench_json.mr_ok then "ok" else "FAIL"))
    spread;
  Printf.printf "\nQ.93B call storms (goal %.0f pairs/s)\n"
    Mesh.goal_pairs_per_sec;
  Printf.printf "%-6s %-8s %6s %6s %5s %13s %12s %12s %4s\n" "hosts" "wiring"
    "pairs" "calls" "done" "wire-pairs/s" "cpu-us/pair" "cpu-pairs/s" "ok";
  List.iter
    (fun (r : Ldlp_report.Bench_json.mesh_storm_row) ->
      Printf.printf "%-6d %-8s %6d %6d %5d %13.0f %12.1f %12.0f %4s\n"
        r.Ldlp_report.Bench_json.ms_hosts r.Ldlp_report.Bench_json.ms_wiring
        r.Ldlp_report.Bench_json.ms_pairs r.Ldlp_report.Bench_json.ms_calls
        r.Ldlp_report.Bench_json.ms_completed
        r.Ldlp_report.Bench_json.ms_wire_pairs_per_s
        r.Ldlp_report.Bench_json.ms_cpu_us_per_pair
        r.Ldlp_report.Bench_json.ms_cpu_pairs_per_s
        (if r.Ldlp_report.Bench_json.ms_ok then "ok" else "FAIL"))
    storm;
  if !failed then begin
    prerr_endline "FAIL: mesh sweep gates did not hold";
    exit 1
  end;
  Printf.printf "conservation, equivalence and reload gates: ok\n";
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Section 1f: sharded call storm -> BENCH_shards.json.                *)
(* ------------------------------------------------------------------ *)

(* The same Q.93B call storm at 1, 2 and 4 shards.  Two rates per row:
   the wall clock (machine-dependent, so the speedup gate only fires on
   multi-core hosts) and the deterministic aggregate CPU-limited rate,
   completed pairs over the busiest shard's modeled CPU seconds — the
   placement-invariant number that must improve with shard count on any
   machine.  Every sharded row is checked for exact equality with the
   single-domain reference before any rate is trusted, and the JSON is
   written even when a gate fails so CI keeps the artifact. *)

let shards_hosts = 256
let shards_degree = 4
let shards_counts = [ 1; 2; 4 ]

let bench_shards ~out () =
  let module Mesh = Ldlp_mesh.Mesh in
  let cfg = Mesh.config ~hosts:shards_hosts ~degree:shards_degree ~seed () in
  let wiring = Mesh.Duplex in
  let base = Mesh.run_storm ~wiring cfg in
  let time_best f =
    let best = ref infinity and result = ref None in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let row shards =
    let sh, wall = time_best (fun () -> Mesh.run_storm_sharded ~wiring ~shards cfg) in
    let s = sh.Mesh.ss_storm in
    let cpu_max = Array.fold_left Float.max 0.0 sh.Mesh.ss_cpu_per_shard in
    {
      Ldlp_report.Bench_json.sh_shards = shards;
      sh_components = sh.Mesh.ss_components;
      sh_completed = s.Mesh.calls_completed;
      sh_wall_s = wall;
      sh_wall_pairs_per_s =
        (if wall > 0.0 then float_of_int s.Mesh.calls_completed /. wall else 0.0);
      sh_cpu_s_max = cpu_max;
      sh_cpu_pairs_per_s =
        (if cpu_max > 0.0 then float_of_int s.Mesh.calls_completed /. cpu_max
         else 0.0);
      sh_ok = s = base && s.Mesh.t_conserved && s.Mesh.t_leak_free;
    }
  in
  let rows = List.map row shards_counts in
  let cores = Domain.recommended_domain_count () in
  let json =
    Ldlp_report.Bench_json.render_shards ~seed ~hosts:shards_hosts
      ~degree:shards_degree ~pairs:base.Mesh.pairs ~host_cores:cores rows
  in
  (match Ldlp_report.Bench_json.parse_shards json with
  | Ok _ -> ()
  | Error e -> failwith ("BENCH_shards.json fails its own schema: " ^ e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf
    "Sharded call storm: %d hosts, %d pairs, %d calls, %s wiring (seed %d, %d \
     cores)\n"
    shards_hosts base.Mesh.pairs base.Mesh.calls_requested
    (Mesh.wiring_name wiring) seed cores;
  Printf.printf "%-7s %11s %5s %10s %13s %13s %4s\n" "shards" "components"
    "done" "wall" "wall-pairs/s" "cpu-pairs/s" "ok";
  List.iter
    (fun (r : Ldlp_report.Bench_json.shard_row) ->
      Printf.printf "%-7d %11d %5d %9ss %13.0f %13.0f %4s\n"
        r.Ldlp_report.Bench_json.sh_shards r.Ldlp_report.Bench_json.sh_components
        r.Ldlp_report.Bench_json.sh_completed
        (Ldlp_sim.Table.fmt_si r.Ldlp_report.Bench_json.sh_wall_s)
        r.Ldlp_report.Bench_json.sh_wall_pairs_per_s
        r.Ldlp_report.Bench_json.sh_cpu_pairs_per_s
        (if r.Ldlp_report.Bench_json.sh_ok then "ok" else "FAIL"))
    rows;
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "FAIL: %s\n" s; failed := true) fmt
  in
  List.iter
    (fun (r : Ldlp_report.Bench_json.shard_row) ->
      if not r.Ldlp_report.Bench_json.sh_ok then
        fail "shards=%d diverged from the single-domain reference"
          r.Ldlp_report.Bench_json.sh_shards)
    rows;
  (match rows with
  | one :: rest ->
    List.iter
      (fun (r : Ldlp_report.Bench_json.shard_row) ->
        if
          r.Ldlp_report.Bench_json.sh_cpu_pairs_per_s
          <= one.Ldlp_report.Bench_json.sh_cpu_pairs_per_s
        then
          fail
            "shards=%d aggregate CPU rate %.0f pairs/s not above the \
             single-shard %.0f"
            r.Ldlp_report.Bench_json.sh_shards
            r.Ldlp_report.Bench_json.sh_cpu_pairs_per_s
            one.Ldlp_report.Bench_json.sh_cpu_pairs_per_s)
      rest;
    (* Wall clock is only meaningful with real parallel hardware; on a
       single-core runner the sharded run adds domain overhead for no
       wall-time return, so the gate stays off. *)
    if cores >= 2 && rest <> [] then begin
      let best_wall =
        List.fold_left
          (fun a (r : Ldlp_report.Bench_json.shard_row) ->
            Float.min a r.Ldlp_report.Bench_json.sh_wall_s)
          infinity rest
      in
      if best_wall >= one.Ldlp_report.Bench_json.sh_wall_s *. 1.05 then
        fail
          "no sharded wall-clock win on a %d-core host: best %.4f s vs %.4f s \
           single-shard"
          cores best_wall one.Ldlp_report.Bench_json.sh_wall_s
    end
  | [] -> fail "no rows");
  if !failed then begin
    prerr_endline "FAIL: sharded storm gates did not hold (JSON still written)";
    exit 1
  end;
  Printf.printf "equality, conservation and scaling gates: ok\n";
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Section 1g2: flow-table locality study -> BENCH_flows.json.         *)
(* ------------------------------------------------------------------ *)

(* The Jain-style destination-locality study at scale: one Flowmix
   arrival stream per flow count (10k / 100k / 1M concurrent flows),
   replayed against the unified flow table under every replacement
   scheme, conventionally and LDLP batch-sorted.  Gates: the flowtable
   differential oracle, cross-scheme + cross-discipline delivered-state
   equivalence (digests), counter conservation, and strictly fewer
   modeled D-misses/lookup for LDLP at 100k and 1M flows.  The JSON is
   written before the gates run so CI keeps the artifact on failure. *)

let flows_counts = [ 10_000; 100_000; 1_000_000 ]

let bench_flows ~out () =
  let module Study = Ldlp_flowtable.Study in
  let module Ft = Ldlp_flowtable.Flowtable in
  let config = Study.bench in
  let rows =
    List.concat_map
      (fun flows -> Study.run ~config ~flows ~seed ())
      flows_counts
  in
  let conv_of r =
    List.find
      (fun c ->
        c.Study.r_flows = r.Study.r_flows
        && c.Study.r_scheme = r.Study.r_scheme
        && not c.Study.r_ldlp)
      rows
  in
  let row_ok r =
    let conv = conv_of r in
    let conserved =
      r.Study.r_found = r.Study.r_lookups
      && r.Study.r_model_hits + r.Study.r_model_misses = r.Study.r_lookups
    in
    let equivalent = r.Study.r_digest = conv.Study.r_digest in
    let wins =
      (not r.Study.r_ldlp)
      || r.Study.r_flows < 100_000
      || r.Study.r_model_misses < conv.Study.r_model_misses
    in
    conserved && equivalent && wins
  in
  let jrows =
    List.map
      (fun r ->
        {
          Ldlp_report.Bench_json.fl_flows = r.Study.r_flows;
          fl_scheme = Ft.scheme_name r.Study.r_scheme;
          fl_ldlp = r.Study.r_ldlp;
          fl_lookups = r.Study.r_lookups;
          fl_model_misses = r.Study.r_model_misses;
          fl_misses_per_lookup = Study.misses_per_lookup r;
          fl_evictions = r.Study.r_model_evictions;
          fl_digest = r.Study.r_digest;
          fl_ok = row_ok r;
        })
      rows
  in
  let json =
    Ldlp_report.Bench_json.render_flows ~seed ~slots:config.Study.slots
      ~batch:config.Study.batch jrows
  in
  (match Ldlp_report.Bench_json.parse_flows json with
  | Ok _ -> ()
  | Error e -> failwith ("BENCH_flows.json fails its own schema: " ^ e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  print_endline (Study.render ~config ~rows ~seed ());
  print_newline ();
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "FAIL: %s\n" s; failed := true) fmt
  in
  (match Ldlp_check.Flowtable_oracle.run ~seed ~cases:25 with
  | Ok n -> Printf.printf "flowtable differential: %d random workloads OK\n" n
  | Error e -> fail "flowtable oracle: %s" e);
  List.iter
    (fun (r : Ldlp_report.Bench_json.flow_row) ->
      if not r.Ldlp_report.Bench_json.fl_ok then
        fail "%s/%s at %d flows failed its row gate"
          r.Ldlp_report.Bench_json.fl_scheme
          (if r.Ldlp_report.Bench_json.fl_ldlp then "ldlp" else "conv")
          r.Ldlp_report.Bench_json.fl_flows)
    jrows;
  if !failed then begin
    prerr_endline "FAIL: flow-table gates did not hold (JSON still written)";
    exit 1
  end;
  Printf.printf
    "equivalence, conservation and LDLP D-miss gates: ok (100k and 1M flows)\n";
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Section 1g: crash/restart recovery -> BENCH_recovery.json.          *)
(* ------------------------------------------------------------------ *)

(* The Q.93B call storm under a crash-rate ladder: every wiring runs
   the same seeded lifecycle plan per rung (25%, 50%, 100% of hosts
   crashing twice inside the horizon) through the deterministic
   retry/backoff/admission engine.  Gates: extended conservation + leak
   freedom + eventual completion per row, cross-wiring agreement on the
   outcome multisets per rung, and a goodput floor under the heaviest
   rung.  The JSON is written before the gates exit so CI keeps the
   artifact on failure. *)

let recovery_hosts = 32
let recovery_degree = 4
let recovery_victims = [ (0.25, "+v25"); (0.5, "+v50"); (1.0, "+v100") ]

let bench_recovery ~out () =
  let module Mesh = Ldlp_mesh.Mesh in
  let module Plan = Ldlp_fault.Plan in
  let rung (victims, tag) =
    let lifecycle =
      Plan.lifecycle ~victims ~episodes:2 ~min_outage:0.002 ~mean_outage:0.01
        ~flap:0.25 ~seed:(seed lxor 0x6c696665) ~hosts:recovery_hosts
        ~horizon:0.02 ()
    in
    let cfg =
      Mesh.config ~hosts:recovery_hosts ~degree:recovery_degree ~seed
        ~lifecycle ()
    in
    let storms = Mesh.compare_storm ~calls_per_pair:6 cfg in
    let episodes = Plan.lifecycle_episodes lifecycle in
    let row (t : Mesh.storm) =
      let ttr = Mesh.storm_ttr_sorted t in
      {
        Ldlp_report.Bench_json.rr_wiring = Mesh.wiring_name t.Mesh.t_wiring ^ tag;
        rr_crash_episodes = episodes;
        rr_calls = t.Mesh.calls_requested;
        rr_completed = t.Mesh.calls_completed;
        rr_abandoned = t.Mesh.calls_abandoned;
        rr_retried = t.Mesh.calls_retried;
        rr_deferred = t.Mesh.setups_deferred;
        rr_goodput_pairs_per_s = Mesh.storm_goodput t;
        rr_retry_amplification = Mesh.storm_retry_amplification t;
        rr_ttr_p50_s = Mesh.ttr_percentile ttr 0.50;
        rr_ttr_p99_s = Mesh.ttr_percentile ttr 0.99;
        rr_ok = t.Mesh.t_conserved && t.Mesh.t_leak_free && Mesh.storm_complete t;
      }
    in
    (tag, storms, List.map row storms)
  in
  let rungs = List.map rung recovery_victims in
  let rows = List.concat_map (fun (_, _, rs) -> rs) rungs in
  let json =
    Ldlp_report.Bench_json.render_recovery ~seed ~hosts:recovery_hosts
      ~degree:recovery_degree rows
  in
  (match Ldlp_report.Bench_json.parse_recovery json with
  | Ok _ -> ()
  | Error e -> failwith ("BENCH_recovery.json fails its own schema: " ^ e));
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf
    "Crash/restart recovery: %d hosts, degree %d, seed %d, %d crash rungs\n"
    recovery_hosts recovery_degree seed (List.length recovery_victims);
  Printf.printf "%-13s %8s %6s %5s %9s %7s %8s %10s %6s %8s %8s %4s\n" "wiring"
    "episodes" "calls" "done" "abandoned" "retries" "deferred" "goodput/s"
    "amp" "ttr-p50" "ttr-p99" "ok";
  List.iter
    (fun (r : Ldlp_report.Bench_json.recovery_row) ->
      Printf.printf "%-13s %8d %6d %5d %9d %7d %8d %10.0f %5.2fx %7ss %7ss %4s\n"
        r.Ldlp_report.Bench_json.rr_wiring
        r.Ldlp_report.Bench_json.rr_crash_episodes
        r.Ldlp_report.Bench_json.rr_calls r.Ldlp_report.Bench_json.rr_completed
        r.Ldlp_report.Bench_json.rr_abandoned
        r.Ldlp_report.Bench_json.rr_retried
        r.Ldlp_report.Bench_json.rr_deferred
        r.Ldlp_report.Bench_json.rr_goodput_pairs_per_s
        r.Ldlp_report.Bench_json.rr_retry_amplification
        (Ldlp_sim.Table.fmt_si r.Ldlp_report.Bench_json.rr_ttr_p50_s)
        (Ldlp_sim.Table.fmt_si r.Ldlp_report.Bench_json.rr_ttr_p99_s)
        (if r.Ldlp_report.Bench_json.rr_ok then "ok" else "FAIL"))
    rows;
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.eprintf "FAIL: %s\n" s; failed := true) fmt
  in
  List.iter
    (fun (r : Ldlp_report.Bench_json.recovery_row) ->
      if not r.Ldlp_report.Bench_json.rr_ok then
        fail "%s: conservation/leak/completion gate"
          r.Ldlp_report.Bench_json.rr_wiring)
    rows;
  (* Cross-wiring agreement per rung: same outcome multiset, retries and
     deferrals whatever the scheduling discipline. *)
  List.iter
    (fun (tag, storms, _) ->
      match storms with
      | (first : Mesh.storm) :: rest ->
        List.iter
          (fun (t : Mesh.storm) ->
            if
              t.Mesh.pair_done <> first.Mesh.pair_done
              || t.Mesh.pair_abandoned <> first.Mesh.pair_abandoned
              || t.Mesh.calls_retried <> first.Mesh.calls_retried
              || t.Mesh.setups_deferred <> first.Mesh.setups_deferred
            then
              fail "rung %s: %s disagrees with %s on the recovery outcome" tag
                (Mesh.wiring_name t.Mesh.t_wiring)
                (Mesh.wiring_name first.Mesh.t_wiring))
          rest
      | [] -> fail "rung %s: no storms" tag)
    rungs;
  (* Goodput floor: even with every host crashing twice, at least half
     the offered calls must complete and goodput must stay positive. *)
  List.iter
    (fun (r : Ldlp_report.Bench_json.recovery_row) ->
      if 2 * r.Ldlp_report.Bench_json.rr_completed < r.Ldlp_report.Bench_json.rr_calls
      then
        fail "%s: only %d/%d calls completed under crashes"
          r.Ldlp_report.Bench_json.rr_wiring
          r.Ldlp_report.Bench_json.rr_completed
          r.Ldlp_report.Bench_json.rr_calls;
      if r.Ldlp_report.Bench_json.rr_goodput_pairs_per_s <= 0.0 then
        fail "%s: zero goodput under crashes" r.Ldlp_report.Bench_json.rr_wiring)
    rows;
  if !failed then begin
    prerr_endline "FAIL: recovery gates did not hold (JSON still written)";
    exit 1
  end;
  Printf.printf "conservation, equivalence, completion and goodput gates: ok\n";
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* Section 2: Bechamel tests.                                          *)
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

let test_dns_server =
  let srv =
    Ldlp_dnslite.Server.create
      ~zone:[ ("www.example.com", "93.184.216.34") ]
      ()
  in
  let query =
    Ldlp_dnslite.Dnsmsg.encode
      (Ldlp_dnslite.Dnsmsg.query ~id:1
         (Ldlp_dnslite.Name.of_string "www.example.com"))
  in
  Test.make ~name:"dns:query+response"
    (Staged.stage (fun () -> Ldlp_dnslite.Server.handle srv query))

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
      test_dns_server;
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

let () =
  let bench_only = Array.exists (( = ) "--bench-only") Sys.argv in
  let repro_only = Array.exists (( = ) "--repro-only") Sys.argv in
  let sweeps_only = Array.exists (( = ) "--sweeps") Sys.argv in
  let hotpath_only = Array.exists (( = ) "--hotpath") Sys.argv in
  let alloc_gate_only = Array.exists (( = ) "--alloc-gate") Sys.argv in
  let soak_only = Array.exists (( = ) "--soak") Sys.argv in
  let mesh_only = Array.exists (( = ) "--mesh") Sys.argv in
  let shards_only = Array.exists (( = ) "--shards") Sys.argv in
  let recovery_only = Array.exists (( = ) "--recovery") Sys.argv in
  let flows_only = Array.exists (( = ) "--flows") Sys.argv in
  if flows_only then bench_flows ~out:"BENCH_flows.json" ()
  else if recovery_only then bench_recovery ~out:"BENCH_recovery.json" ()
  else if shards_only then bench_shards ~out:"BENCH_shards.json" ()
  else if mesh_only then bench_mesh ~out:"BENCH_mesh.json" ()
  else if sweeps_only then bench_sweeps ~out:"BENCH_sweeps.json" ()
  else if hotpath_only then bench_hotpath ~out:"BENCH_hotpath.json" ()
  else if alloc_gate_only then bench_alloc_gate ()
  else if soak_only then bench_soak ~out:"BENCH_soak.json" ()
  else begin
    if not bench_only then reproduce ();
    if not repro_only then run_benchmarks ()
  end
