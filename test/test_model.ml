(* Tests for the Section 4 synthetic evaluation model: parameters, the
   checksum study (Figure 8), and the cycle-accurate scheduler simulation
   (Figures 5-7 shapes). *)

open Ldlp_model

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---------- Params ---------- *)

let test_params_paper_cycles () =
  (* 1652 cycles per layer for the 552-byte message. *)
  checki "cycles per layer" 1652
    (Params.cycles_per_layer Params.paper ~msg_bytes:552)

let test_params_scale_code () =
  let p = Params.scale_code Params.paper 0.5 in
  checki "halved" 3072 p.Params.layer_code_bytes;
  check "bad factor raises" true
    (try
       ignore (Params.scale_code Params.paper 0.0);
       false
     with Invalid_argument _ -> true)

(* ---------- Cksum study (Figure 8) ---------- *)

let test_cksum_study_crossover () =
  let x = Cksum_study.cold_crossover () in
  check (Printf.sprintf "cold crossover %d near 900" x) true (x >= 700 && x <= 1100)

(* Figure 8's points at exactly these message sizes. *)
let cksum_points sizes =
  let points =
    List.filter
      (fun p -> List.mem p.Cksum_study.msg_bytes sizes)
      (Cksum_study.series ())
  in
  Alcotest.(check int) "one point per size" (List.length sizes) (List.length points);
  points

let test_cksum_study_warm_elaborate_wins () =
  (* Warm cache: the elaborate routine wins at nearly all sizes. *)
  List.iter
    (fun p ->
      check
        (Printf.sprintf "warm elaborate faster at %d" p.Cksum_study.msg_bytes)
        true
        (p.Cksum_study.elaborate_warm < p.Cksum_study.simple_warm))
    (cksum_points [ 128; 256; 512; 992 ])

let test_cksum_study_cold_simple_wins_small () =
  List.iter
    (fun p ->
      check
        (Printf.sprintf "cold simple faster at %d" p.Cksum_study.msg_bytes)
        true
        (p.Cksum_study.simple_cold < p.Cksum_study.elaborate_cold))
    (cksum_points [ 128; 256; 512 ])

let test_cksum_study_fill_costs () =
  let fe = Cksum_study.fill_cost ~routine:`Elaborate ~msg_bytes:40 in
  let fs = Cksum_study.fill_cost ~routine:`Simple ~msg_bytes:40 in
  (* Paper annotations: 426 and 176 cycles. *)
  check (Printf.sprintf "elaborate fill %.0f ~ 426" fe) true (fe > 380.0 && fe < 480.0);
  check (Printf.sprintf "simple fill %.0f ~ 176" fs) true (fs > 140.0 && fs < 220.0)

let test_cksum_study_series () =
  let s = Cksum_study.series () in
  checki "63 points" 63 (List.length s);
  check "warm <= cold everywhere" true
    (List.for_all
       (fun p ->
         p.Cksum_study.elaborate_warm <= p.Cksum_study.elaborate_cold
         && p.Cksum_study.simple_warm <= p.Cksum_study.simple_cold)
       s)

(* ---------- Simrun ---------- *)

let tiny = { Params.quick with Params.runs = 2; seconds = 0.2 }

let make_source rate params rng =
  Ldlp_traffic.Source.limit_time
    (Ldlp_traffic.Poisson.source ~rng ~rate ~size:params.Params.msg_bytes ())
    params.Params.seconds

let run d rate =
  Simrun.run_avg ~params:tiny ~discipline:d ~seed:3
    ~make_source:(make_source rate tiny) ()

let test_conventional_misses_flat () =
  (* Conventional: ~1018 lines fetched per message at any load (960 code +
     40 layer data + 18 message), minus a little for lucky conflicts. *)
  let low = run Simrun.Conventional 1000.0 in
  let high = run Simrun.Conventional 8000.0 in
  let near x = x > 850.0 && x < 1030.0 in
  check
    (Printf.sprintf "low-rate I+D %.0f"
       (low.Simrun.imisses_per_msg +. low.Simrun.dmisses_per_msg))
    true
    (near (low.Simrun.imisses_per_msg +. low.Simrun.dmisses_per_msg));
  check "flat across load" true
    (Float.abs (high.Simrun.imisses_per_msg -. low.Simrun.imisses_per_msg)
    < 0.1 *. low.Simrun.imisses_per_msg)

let test_ldlp_misses_fall_with_load () =
  let low = run Simrun.Ldlp 1000.0 in
  let high = run Simrun.Ldlp 9000.0 in
  check
    (Printf.sprintf "I misses fall: %.0f -> %.0f" low.Simrun.imisses_per_msg
       high.Simrun.imisses_per_msg)
    true
    (high.Simrun.imisses_per_msg < 0.2 *. low.Simrun.imisses_per_msg);
  check "D misses rise with batching" true
    (high.Simrun.dmisses_per_msg > low.Simrun.dmisses_per_msg)

let test_ldlp_batch_capped_at_14 () =
  let high = run Simrun.Ldlp 10000.0 in
  check
    (Printf.sprintf "max batch %d <= 14" high.Simrun.max_batch)
    true
    (high.Simrun.max_batch <= 14);
  check "substantial batching" true (high.Simrun.mean_batch > 8.0)

let test_saturation_points () =
  (* The paper's arithmetic: conventional saturates ~3.5k msg/s, LDLP
     reaches ~9.9k. *)
  let conv = run Simrun.Conventional 10000.0 in
  let ldlp = run Simrun.Ldlp 10000.0 in
  check
    (Printf.sprintf "conv throughput %.0f ~ 3.5k" conv.Simrun.throughput)
    true
    (conv.Simrun.throughput > 3000.0 && conv.Simrun.throughput < 4200.0);
  check
    (Printf.sprintf "ldlp throughput %.0f > 9k" ldlp.Simrun.throughput)
    true
    (ldlp.Simrun.throughput > 8800.0);
  check "conventional drops under overload" true (conv.Simrun.dropped > 0);
  check "ldlp keeps up" true (ldlp.Simrun.dropped < conv.Simrun.dropped)

let test_latency_ldlp_beats_conventional_under_load () =
  let conv = run Simrun.Conventional 6000.0 in
  let ldlp = run Simrun.Ldlp 6000.0 in
  check "ldlp latency lower at 6k" true
    (ldlp.Simrun.mean_latency < conv.Simrun.mean_latency /. 5.0)

let test_light_load_equivalence () =
  (* "Under light load, messages will usually be processed singly" —
     latencies within 10%. *)
  let conv = run Simrun.Conventional 500.0 in
  let ldlp = run Simrun.Ldlp 500.0 in
  check "similar light-load latency" true
    (Float.abs (ldlp.Simrun.mean_latency -. conv.Simrun.mean_latency)
    < 0.1 *. conv.Simrun.mean_latency);
  check "no batching at light load" true (ldlp.Simrun.mean_batch < 1.2)

let test_ilp_touches_message_once () =
  (* ILP saves the per-layer message reloads: fewer D misses than
     conventional, same I misses. *)
  let conv = run Simrun.Conventional 2000.0 in
  let ilp = run Simrun.Ilp 2000.0 in
  check "ilp D misses lower" true
    (ilp.Simrun.dmisses_per_msg < conv.Simrun.dmisses_per_msg);
  check "ilp I misses similar" true
    (Float.abs (ilp.Simrun.imisses_per_msg -. conv.Simrun.imisses_per_msg)
    < 0.05 *. conv.Simrun.imisses_per_msg)

let test_clock_override () =
  let slow =
    Simrun.run_avg ~params:tiny ~discipline:Simrun.Conventional ~seed:3
      ~make_source:(make_source 500.0 tiny) ~clock_hz:10e6 ()
  in
  let fast =
    Simrun.run_avg ~params:tiny ~discipline:Simrun.Conventional ~seed:3
      ~make_source:(make_source 500.0 tiny) ~clock_hz:100e6 ()
  in
  check "slower clock, higher latency" true
    (slow.Simrun.mean_latency > 5.0 *. fast.Simrun.mean_latency)

let test_conservation () =
  let r = run Simrun.Ldlp 4000.0 in
  checki "offered = processed + dropped" r.Simrun.offered
    (r.Simrun.processed + r.Simrun.dropped)

(* ---------- Figures plumbing ---------- *)

let test_rate_sweep_structure () =
  let pts =
    Figures.rate_sweep ~params:tiny ~seed:1 ~rates:[ 1000.0; 5000.0 ] ()
  in
  checki "two points" 2 (List.length pts);
  List.iter
    (fun p ->
      check "both disciplines ran" true
        (p.Figures.conv.Simrun.processed > 0 && p.Figures.ldlp.Simrun.processed > 0))
    pts

let test_clock_sweep_structure () =
  (* Bursty ON/OFF traffic needs a longer window than the other tests for
     a stable latency comparison. *)
  let params = { tiny with Params.runs = 2; seconds = 1.0 } in
  let pts =
    Figures.clock_sweep ~params ~seed:1 ~clocks_mhz:[ 10.0; 80.0 ] ()
  in
  checki "two points" 2 (List.length pts);
  let slow = List.hd pts and fast = List.nth pts 1 in
  check "both processed traffic" true
    (slow.Figures.cv.Simrun.processed > 0 && fast.Figures.cv.Simrun.processed > 0);
  check "latency falls with clock" true
    (fast.Figures.cv.Simrun.mean_latency < slow.Figures.cv.Simrun.mean_latency)

let test_ablation_batch_ordering () =
  let pts = Figures.ablation_batch ~params:tiny ~seed:1 () in
  let get p =
    (List.find (fun b -> b.Figures.policy = p) pts).Figures.r
  in
  let b1 = get (Ldlp_core.Batch.Fixed 1) in
  let b16 = get (Ldlp_core.Batch.Fixed 16) in
  check "bigger batch, fewer I misses" true
    (b16.Simrun.imisses_per_msg < b1.Simrun.imisses_per_msg /. 3.0)

let test_ablation_density () =
  let pts = Figures.ablation_density ~params:tiny ~seed:1 () in
  let scale s = List.find (fun p -> p.Figures.code_scale = s) pts in
  let small = scale 0.45 and full = scale 1.0 in
  (* Denser code: conventional gets faster (fewer misses). *)
  check "denser code, fewer conv misses" true
    (small.Figures.dc.Simrun.imisses_per_msg
    < 0.6 *. full.Figures.dc.Simrun.imisses_per_msg)

let test_ablation_linesize () =
  let pts = Figures.ablation_linesize ~params:tiny ~seed:1 () in
  let line n = List.find (fun p -> p.Figures.line_bytes = n) pts in
  let l16 = line 16 and l64 = line 64 in
  (* Larger lines: fewer conventional I misses (Table 3's point). *)
  check "64B lines cut conv misses vs 16B" true
    (l64.Figures.lc.Simrun.imisses_per_msg
    < 0.5 *. l16.Figures.lc.Simrun.imisses_per_msg)

let test_comparison_ilp_structure () =
  let pts = Figures.comparison_ilp ~params:tiny ~seed:2 () in
  match List.filter (fun p -> p.Figures.irate = 6000.0) pts with
  | [ p ] ->
    (* ILP matches conventional on I misses, beats it on D misses, and
       LDLP beats both on I misses under load. *)
    check "ilp I ~ conv I" true
      (Float.abs
         (p.Figures.i_ilp.Simrun.imisses_per_msg
         -. p.Figures.i_conv.Simrun.imisses_per_msg)
      < 0.05 *. p.Figures.i_conv.Simrun.imisses_per_msg);
    check "ilp D < conv D" true
      (p.Figures.i_ilp.Simrun.dmisses_per_msg
      < p.Figures.i_conv.Simrun.dmisses_per_msg);
    check "ldlp I < conv I" true
      (p.Figures.i_ldlp.Simrun.imisses_per_msg
      < 0.6 *. p.Figures.i_conv.Simrun.imisses_per_msg)
  | _ -> Alcotest.fail "one point expected"

let test_extension_goal_structure () =
  let g = Figures.extension_goal ~seed:2 () in
  check "ldlp sustains much more than conventional" true
    (g.Figures.g_ldlp.Simrun.throughput
    > 2.0 *. g.Figures.g_conv.Simrun.throughput);
  check "backoff run has no drops" true
    (g.Figures.g_ldlp_backoff.Simrun.dropped = 0);
  check "backoff latency below saturated latency" true
    (g.Figures.g_ldlp_backoff.Simrun.mean_latency
    < g.Figures.g_ldlp.Simrun.mean_latency)

let test_ablation_granularity_shape () =
  let pts = Figures.ablation_granularity ~seed:4 () in
  let get n = (List.find (fun p -> p.Figures.nlayers = n) pts).Figures.gl in
  (* Cache-sized layers keep LDLP effective; a fused 30 KB layer
     self-evicts and loses the entire benefit. *)
  check "5x6KB far better than 1x30KB" true
    ((get 5).Simrun.mean_latency < 0.2 *. (get 1).Simrun.mean_latency);
  check "fused layer misses like conventional" true
    ((get 1).Simrun.imisses_per_msg > 900.0)

let test_parallel_sweep_matches_sequential () =
  (* The ISSUE's determinism guarantee: same seeds, same tables, whatever
     the domain count.  Exercised with 2 and 4 domains. *)
  check "2 domains == sequential" true (Figures.sweep_selftest ~domains:2 ());
  check "4 domains == sequential" true (Figures.sweep_selftest ~domains:4 ())

let test_parallel_rate_sweep_identical () =
  let rates = [ 1000.0; 5000.0 ] in
  let seq = Figures.rate_sweep ~domains:1 ~params:tiny ~seed:1 ~rates () in
  let par = Figures.rate_sweep ~domains:4 ~params:tiny ~seed:1 ~rates () in
  check "structurally equal results" true (seq = par)

let test_extension_tcp_stack () =
  (* Section 6: LDLP is advantageous even for TCP's real footprints. *)
  let pts = Figures.extension_tcp_stack ~seed:5 () in
  match List.filter (fun p -> p.Figures.t_rate = 6000.0) pts with
  | [ p ] ->
    check "ldlp wins on real TCP footprints" true
      (p.Figures.tl.Simrun.mean_latency
      < 0.2 *. p.Figures.tc.Simrun.mean_latency);
    check "conv misses ~ working set" true
      (p.Figures.tc.Simrun.imisses_per_msg > 850.0)
  | _ -> Alcotest.fail "one point"

let suite =
  [
    Alcotest.test_case "params cycles" `Quick test_params_paper_cycles;
    Alcotest.test_case "params scale code" `Quick test_params_scale_code;
    Alcotest.test_case "fig8 crossover" `Quick test_cksum_study_crossover;
    Alcotest.test_case "fig8 warm elaborate" `Quick test_cksum_study_warm_elaborate_wins;
    Alcotest.test_case "fig8 cold simple" `Quick test_cksum_study_cold_simple_wins_small;
    Alcotest.test_case "fig8 fill costs" `Quick test_cksum_study_fill_costs;
    Alcotest.test_case "fig8 series" `Quick test_cksum_study_series;
    Alcotest.test_case "conv misses flat" `Slow test_conventional_misses_flat;
    Alcotest.test_case "ldlp misses fall" `Slow test_ldlp_misses_fall_with_load;
    Alcotest.test_case "batch capped at 14" `Slow test_ldlp_batch_capped_at_14;
    Alcotest.test_case "saturation points" `Slow test_saturation_points;
    Alcotest.test_case "ldlp wins under load" `Slow
      test_latency_ldlp_beats_conventional_under_load;
    Alcotest.test_case "light load equivalence" `Slow test_light_load_equivalence;
    Alcotest.test_case "ilp message once" `Slow test_ilp_touches_message_once;
    Alcotest.test_case "clock override" `Slow test_clock_override;
    Alcotest.test_case "conservation" `Slow test_conservation;
    Alcotest.test_case "rate sweep structure" `Slow test_rate_sweep_structure;
    Alcotest.test_case "clock sweep structure" `Slow test_clock_sweep_structure;
    Alcotest.test_case "ablation batch" `Slow test_ablation_batch_ordering;
    Alcotest.test_case "ablation density" `Slow test_ablation_density;
    Alcotest.test_case "ablation linesize" `Slow test_ablation_linesize;
    Alcotest.test_case "ilp comparison" `Slow test_comparison_ilp_structure;
    Alcotest.test_case "goal check structure" `Slow test_extension_goal_structure;
    Alcotest.test_case "granularity ablation" `Slow test_ablation_granularity_shape;
    Alcotest.test_case "tcp-footprint extension" `Slow test_extension_tcp_stack;
    Alcotest.test_case "parallel sweep selftest" `Quick
      test_parallel_sweep_matches_sequential;
    Alcotest.test_case "parallel rate sweep identical" `Slow
      test_parallel_rate_sweep_identical;
  ]
