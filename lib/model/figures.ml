type rate_point = {
  rate : float;
  conv : Simrun.result;
  ldlp : Simrun.result;
}

let default_rates =
  List.init 20 (fun i -> float_of_int ((i + 1) * 500))

let poisson_source params rate rng =
  Ldlp_traffic.Source.limit_time
    (Ldlp_traffic.Poisson.source ~rng ~rate
       ~size:params.Params.msg_bytes ())
    params.Params.seconds

(* Every sweep point is a closed thunk — it builds its own RNG (from the
   shared integer seed), layout, memory system and scheduler — so the
   points run on worker domains with no shared mutable state, and
   [Pool.map] reassembles them in input order.  Parallel output is
   therefore byte-identical to sequential output. *)
let pmap = Ldlp_par.Pool.map

let rate_sweep ?domains ?(params = Params.quick) ?(seed = 1996)
    ?(rates = default_rates) () =
  pmap ?domains
    (fun rate ->
      let make_source = poisson_source params rate in
      let run discipline =
        Simrun.run_avg ~params ~discipline ~seed ~make_source ()
      in
      { rate; conv = run Simrun.Conventional; ldlp = run Simrun.Ldlp })
    rates

type clock_point = {
  clock_mhz : float;
  cv : Simrun.result;
  ld : Simrun.result;
}

let default_clocks_mhz = [ 10.; 15.; 20.; 25.; 30.; 40.; 50.; 60.; 70.; 80. ]

let clock_sweep ?domains ?(params = Params.quick) ?(seed = 1996)
    ?(clocks_mhz = default_clocks_mhz) () =
  pmap ?domains
    (fun clock_mhz ->
      let make_source rng =
        Ldlp_traffic.Source.limit_time
          (Ldlp_traffic.Onoff.source ~rng ())
          params.Params.seconds
      in
      let run discipline =
        Simrun.run_avg ~params ~discipline ~seed ~make_source
          ~clock_hz:(clock_mhz *. 1e6) ()
      in
      { clock_mhz; cv = run Simrun.Conventional; ld = run Simrun.Ldlp })
    clocks_mhz

let fig8 () = Cksum_study.series ()

(* The synthetic TCP/IP trace behind Tables 1 and 3, Figure 1 and the
   Section 5.4 ablations. *)
let trace () = Ldlp_trace.Synth.generate ()

let table1 () =
  let s = trace () in
  Ldlp_trace.Analyze.table1 s.Ldlp_trace.Synth.trace

let table3 () =
  let s = trace () in
  Ldlp_trace.Analyze.line_size_sweep s.Ldlp_trace.Synth.trace

let figure1 () =
  let s = trace () in
  ( Ldlp_trace.Analyze.phases s.Ldlp_trace.Synth.trace,
    Ldlp_trace.Analyze.functions s.Ldlp_trace.Synth.trace )

type batch_point = {
  policy : Ldlp_core.Batch.policy;
  at_rate : float;
  r : Simrun.result;
}

let ablation_batch ?domains ?(params = Params.quick) ?(seed = 1996) () =
  let rate = 8000.0 in
  let policies =
    [
      Ldlp_core.Batch.Fixed 1;
      Ldlp_core.Batch.Fixed 2;
      Ldlp_core.Batch.Fixed 4;
      Ldlp_core.Batch.Fixed 8;
      Ldlp_core.Batch.Fixed 16;
      Ldlp_core.Batch.Fixed 32;
      params.Params.batch;
      Ldlp_core.Batch.All;
    ]
  in
  pmap ?domains
    (fun policy ->
      let params = { params with Params.batch = policy } in
      let make_source = poisson_source params rate in
      {
        policy;
        at_rate = rate;
        r =
          Simrun.run_avg ~params ~discipline:Simrun.Ldlp ~seed ~make_source ();
      })
    policies

type density_point = {
  code_scale : float;
  dc : Simrun.result;
  dl : Simrun.result;
}

let ablation_density ?domains ?(params = Params.quick) ?(seed = 1996) () =
  pmap ?domains
    (fun code_scale ->
      let params = Params.scale_code params code_scale in
      let make_source = poisson_source params 6000.0 in
      let run discipline =
        Simrun.run_avg ~params ~discipline ~seed ~make_source ()
      in
      { code_scale; dc = run Simrun.Conventional; dl = run Simrun.Ldlp })
    [ 0.45; 0.6; 0.8; 1.0 ]

type linesize_point = {
  line_bytes : int;
  lc : Simrun.result;
  ll : Simrun.result;
}

let ablation_linesize ?domains ?(params = Params.quick) ?(seed = 1996) () =
  pmap ?domains
    (fun line_bytes ->
      let cache =
        Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes ~miss_penalty:20 ()
      in
      let params = { params with Params.icache = cache; dcache = cache } in
      let make_source = poisson_source params 6000.0 in
      let run discipline =
        Simrun.run_avg ~params ~discipline ~seed ~make_source ()
      in
      { line_bytes; lc = run Simrun.Conventional; ll = run Simrun.Ldlp })
    [ 16; 32; 64; 128 ]

let ablation_dilution () =
  let s = trace () in
  Ldlp_trace.Analyze.dilution s.Ldlp_trace.Synth.trace

let ablation_relayout () =
  let s = trace () in
  Ldlp_trace.Relayout.miss_comparison s.Ldlp_trace.Synth.trace

type assoc_point = { ways : int; ac : Simrun.result; al : Simrun.result }

let run_pair params seed rate =
  let make_source = poisson_source params rate in
  let run discipline = Simrun.run_avg ~params ~discipline ~seed ~make_source () in
  (run Simrun.Conventional, run Simrun.Ldlp)

let ablation_associativity ?domains ?(params = Params.quick) ?(seed = 1996) () =
  pmap ?domains
    (fun ways ->
      let cache =
        Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:ways
          ~miss_penalty:20 ()
      in
      let params = { params with Params.icache = cache; dcache = cache } in
      let ac, al = run_pair params seed 6000.0 in
      { ways; ac; al })
    [ 1; 2; 4 ]

type prefetch_point = { discount : float; pc : Simrun.result; pl : Simrun.result }

let ablation_prefetch ?domains ?(params = Params.quick) ?(seed = 1996) () =
  pmap ?domains
    (fun discount ->
      let params = { params with Params.prefetch_discount = discount } in
      let pc, pl = run_pair params seed 6000.0 in
      { discount; pc; pl })
    [ 1.0; 0.5; 0.25 ]

type machine_point = { label : string; mc : Simrun.result; ml : Simrun.result }

let machine_points ?domains seed configs =
  pmap ?domains
    (fun (label, params) ->
      let mc, ml = run_pair params seed 6000.0 in
      { label; mc; ml })
    configs

let ablation_unified ?domains ?(params = Params.quick) ?(seed = 1996) () =
  let unified_params =
    let cache =
      Ldlp_cache.Config.v ~size_bytes:16384 ~line_bytes:32 ~miss_penalty:20 ()
    in
    { params with Params.icache = cache; dcache = cache; unified_cache = true }
  in
  machine_points ?domains seed
    [ ("split 8K+8K", params); ("unified 16K", unified_params) ]

let ablation_layout ?domains ?(params = Params.quick) ?(seed = 1996) () =
  let packed_params = { params with Params.packed_layout = true; runs = 1 } in
  machine_points ?domains seed
    [ ("random placement", params); ("dense (Cord-like)", packed_params) ]

type ilp_point = {
  irate : float;
  i_conv : Simrun.result;
  i_ilp : Simrun.result;
  i_ldlp : Simrun.result;
}

let comparison_ilp ?domains ?(params = Params.quick) ?(seed = 1996) () =
  pmap ?domains
    (fun irate ->
      let make_source = poisson_source params irate in
      let run discipline =
        Simrun.run_avg ~params ~discipline ~seed ~make_source ()
      in
      {
        irate;
        i_conv = run Simrun.Conventional;
        i_ilp = run Simrun.Ilp;
        i_ldlp = run Simrun.Ldlp;
      })
    [ 2000.0; 6000.0; 9000.0 ]

type goal_check = {
  offered : float;
  g_conv : Simrun.result;
  g_ldlp : Simrun.result;
  g_ldlp_backoff : Simrun.result;
      (** The LDLP stack at 80% of the goal rate, where latency is
          meaningful. *)
}

let extension_goal ?domains ?(seed = 1996) () =
  (* A signalling stack: link + SSCOP + Q.93B + call control.  Per-layer
     working sets average ~5 KB of code; messages are ~120 bytes; each
     layer spends ~1200 cycles per message.  20 000 msg/s = the paper's
     10 000 setup/teardown pairs/s. *)
  let params =
    {
      Params.paper with
      Params.layers = 4;
      layer_code_bytes = 4864;
      layer_data_bytes = 512;
      base_cycles_per_layer = 1140;
      cycles_per_byte = 0.5;
      msg_bytes = 120;
      runs = 5;
      seconds = 0.5;
    }
  in
  let offered = 20000.0 in
  let run (rate, discipline) =
    Simrun.run_avg ~params ~discipline ~seed
      ~make_source:(poisson_source params rate) ()
  in
  match
    pmap ?domains run
      [
        (offered, Simrun.Conventional);
        (offered, Simrun.Ldlp);
        (0.8 *. offered, Simrun.Ldlp);
      ]
  with
  | [ g_conv; g_ldlp; g_ldlp_backoff ] ->
    { offered; g_conv; g_ldlp; g_ldlp_backoff }
  | _ -> assert false

type tcp_stack_point = {
  t_rate : float;
  tc : Simrun.result;
  tl : Simrun.result;
}

(* Seven layers from Table 1's categories (code bytes, data bytes = RO +
   mutable, cycles proportional to code out of ~8260 total): the real
   4.4BSD TCP/IP receive path's footprints. *)
let table1_profile =
  let rows =
    [
      (* code, ro+mut *)
      (4480, 864 + 672);  (* device/ethernet *)
      (2784, 480 + 128);  (* ip *)
      (3168, 448 + 160);  (* tcp *)
      (5536 + 608, 544 + 448 + 32 + 160);  (* socket *)
      (1184 + 2208, 256 + 64 + 1280 + 640);  (* kernel entry + process *)
      (5472, 544 + 736);  (* buffer mgmt *)
      (1632 + 3232, 192 + 512 + 448 + 128);  (* common + copy/cksum *)
    ]
  in
  let total_code = List.fold_left (fun a (c, _) -> a + c) 0 rows in
  List.map
    (fun (code, data) -> (code, data, 6880 * code / total_code))
    rows

let extension_tcp_stack ?domains ?(seed = 1996) () =
  let params =
    {
      Params.paper with
      Params.profile = Some table1_profile;
      layers = List.length table1_profile;
      runs = 5;
      seconds = 0.3;
    }
  in
  pmap ?domains
    (fun t_rate ->
      let make_source = poisson_source params t_rate in
      let run discipline =
        Simrun.run_avg ~params ~discipline ~seed ~make_source ()
      in
      { t_rate; tc = run Simrun.Conventional; tl = run Simrun.Ldlp })
    [ 1000.0; 3000.0; 6000.0; 9000.0 ]

type granularity_point = {
  nlayers : int;
  layer_kb : float;
  gc : Simrun.result;
  gl : Simrun.result;
}

let ablation_granularity ?domains ?(seed = 1996) () =
  (* The paper's stack, re-partitioned at constant totals: 30720 B code,
     1280 B layer data, 8260 execution cycles per 552-byte message. *)
  pmap ?domains
    (fun nlayers ->
      let params =
        {
          Params.paper with
          Params.layers = nlayers;
          layer_code_bytes = 30720 / nlayers;
          layer_data_bytes = 1280 / nlayers;
          base_cycles_per_layer = 6880 / nlayers;
          cycles_per_byte = 2.5 /. float_of_int nlayers;
          runs = 5;
          seconds = 0.3;
        }
      in
      let make_source = poisson_source params 8000.0 in
      let run discipline =
        Simrun.run_avg ~params ~discipline ~seed ~make_source ()
      in
      {
        nlayers;
        layer_kb = 30720.0 /. float_of_int nlayers /. 1024.0;
        gc = run Simrun.Conventional;
        gl = run Simrun.Ldlp;
      })
    [ 10; 5; 2; 1 ]

type txside_point = {
  tx_rate : float;
  rx_conv : Simrun.result;
  rx_ldlp : Simrun.result;
  tx_conv : Simrun.result;
  tx_ldlp : Simrun.result;
}

let extension_txside ?domains ?(params = Params.quick) ?(seed = 1996) () =
  pmap ?domains
    (fun rate ->
      let make_source = poisson_source params rate in
      let run direction discipline =
        Simrun.run_avg ~direction ~params ~discipline ~seed ~make_source ()
      in
      {
        tx_rate = rate;
        rx_conv = run `Receive Simrun.Conventional;
        rx_ldlp = run `Receive Simrun.Ldlp;
        tx_conv = run `Transmit Simrun.Conventional;
        tx_ldlp = run `Transmit Simrun.Ldlp;
      })
    [ 2000.0; 6000.0; 9000.0 ]

let sweep_selftest ?(domains = 2) () =
  let params = { Params.quick with Params.runs = 2; seconds = 0.05 } in
  let rates = [ 2000.0; 6000.0; 9000.0 ] in
  let clocks_mhz = [ 20.0; 60.0 ] in
  let seed = 7 in
  let reference = rate_sweep ~domains:1 ~params ~seed ~rates () in
  let candidate = rate_sweep ~domains ~params ~seed ~rates () in
  let reference_clock = clock_sweep ~domains:1 ~params ~seed ~clocks_mhz () in
  let candidate_clock = clock_sweep ~domains ~params ~seed ~clocks_mhz () in
  (* A policy sweep too: its work items differ in shape (policies, not
     rates), so it exercises the pool's work distribution differently. *)
  let reference_batch = ablation_batch ~domains:1 ~params ~seed () in
  let candidate_batch = ablation_batch ~domains ~params ~seed () in
  reference = candidate
  && reference_clock = candidate_clock
  && reference_batch = candidate_batch
