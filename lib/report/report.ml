module Table = Ldlp_sim.Table
module Chart = Ldlp_sim.Chart
module A = Ldlp_trace.Analyze
module F = Ldlp_model.Figures

let si = Table.fmt_si

let f0 x = Printf.sprintf "%.0f" x

let f1 x = Printf.sprintf "%.1f" x

let table1 (t : A.table1) =
  let header =
    [ "Layer"; "Code"; "(paper)"; "RO data"; "(paper)"; "Mut data"; "(paper)" ]
  in
  let row (r : A.row) =
    let tgt = Ldlp_trace.Funcmap.target r.A.category in
    [
      Ldlp_trace.Funcmap.category_name r.A.category;
      string_of_int r.A.code_bytes;
      string_of_int tgt.Ldlp_trace.Funcmap.code;
      string_of_int r.A.ro_bytes;
      string_of_int tgt.Ldlp_trace.Funcmap.ro;
      string_of_int r.A.mut_bytes;
      string_of_int tgt.Ldlp_trace.Funcmap.mut;
    ]
  in
  let total =
    [
      "Total";
      string_of_int t.A.total.A.code_bytes;
      string_of_int Ldlp_trace.Funcmap.total_code;
      string_of_int t.A.total.A.ro_bytes;
      string_of_int Ldlp_trace.Funcmap.total_ro;
      string_of_int t.A.total.A.mut_bytes;
      string_of_int Ldlp_trace.Funcmap.total_mut;
    ]
  in
  "Table 1 — working set of the TCP receive & acknowledge path (bytes, \
   32-byte lines)\n"
  ^ Table.render ~header (List.map row t.A.rows @ [ total ])

(* The paper's Table 3 percentages, (bytes, lines) per kind, for display
   next to ours. *)
let paper_table3 = function
  | 64 -> Some (("+17%", "-41%"), ("+44%", "-28%"), ("+55%", "-22%"))
  | 32 -> Some (("0%", "0%"), ("0%", "0%"), ("0%", "0%"))
  | 16 -> Some (("-13%", "+73%"), ("-31%", "+38%"), ("-38%", "+23%"))
  | 8 -> Some (("-20%", "+216%"), ("-55%", "+81%"), ("-56%", "+75%"))
  | 4 -> Some (("-25%", "+500%"), ("N/A", "N/A"), ("N/A", "N/A"))
  | _ -> None

let table3 rows =
  let base =
    match List.find_opt (fun r -> r.A.line_size = 32) rows with
    | Some b -> b
    | None -> invalid_arg "Report.table3: missing 32-byte baseline"
  in
  let pct a b =
    if b = 0 then "n/a" else Table.fmt_pct ((float_of_int a /. float_of_int b) -. 1.0)
  in
  let header =
    [
      "Line";
      "Code B"; "(paper)"; "Code lines"; "(paper)";
      "RO B"; "(paper)"; "RO lines"; "(paper)";
      "Mut B"; "(paper)"; "Mut lines"; "(paper)";
    ]
  in
  let row r =
    let (cb, cl), (rb, rl), (mb, ml) =
      match paper_table3 r.A.line_size with
      | Some p -> p
      | None -> (("?", "?"), ("?", "?"), ("?", "?"))
    in
    [
      string_of_int r.A.line_size;
      pct r.A.code_line_bytes base.A.code_line_bytes; cb;
      pct r.A.code_lines base.A.code_lines; cl;
      pct r.A.ro_line_bytes base.A.ro_line_bytes; rb;
      pct r.A.ro_lines base.A.ro_lines; rl;
      pct r.A.mut_line_bytes base.A.mut_line_bytes; mb;
      pct r.A.mut_lines base.A.mut_lines; ml;
    ]
  in
  let rows = List.sort (fun a b -> compare b.A.line_size a.A.line_size) rows in
  "Table 3 — effect of cache line size on working set (change vs 32-byte \
   lines)\n"
  ^ Table.render ~header (List.map row rows)

let figure1 phases funcs =
  let header =
    [ "Phase"; "Code bytes"; "Code refs"; "Read B"; "Read refs"; "Write B"; "Write refs" ]
  in
  let prow (p : A.phase_summary) =
    [
      Ldlp_trace.Event.phase_name p.A.phase;
      string_of_int p.A.code_bytes;
      string_of_int p.A.code_refs;
      string_of_int p.A.read_bytes;
      string_of_int p.A.read_refs;
      string_of_int p.A.write_bytes;
      string_of_int p.A.write_refs;
    ]
  in
  let fheader = [ "Function"; "Touched bytes" ] in
  let frow (f : A.func_touch) = [ f.A.fn; string_of_int f.A.bytes ] in
  "Figure 1 — receive & acknowledge path phases (synthetic trace)\n"
  ^ Table.render ~header (List.map prow phases)
  ^ "\nPer-function touched code (descending):\n"
  ^ Table.render ~header:fheader (List.map frow funcs)

let rate_table points rows_of ~title ~header =
  title ^ "\n" ^ Table.render ~header (List.map rows_of points)

let fig5 points =
  let header =
    [ "Rate (msg/s)"; "Conv I/msg"; "Conv D/msg"; "LDLP I/msg"; "LDLP D/msg"; "LDLP batch" ]
  in
  let row (p : F.rate_point) =
    [
      f0 p.F.rate;
      f1 p.F.conv.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.conv.Ldlp_model.Simrun.dmisses_per_msg;
      f1 p.F.ldlp.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.ldlp.Ldlp_model.Simrun.dmisses_per_msg;
      f1 p.F.ldlp.Ldlp_model.Simrun.mean_batch;
    ]
  in
  let chart =
    Chart.plot ~x_label:"arrival rate (msg/s)" ~y_label:"cache misses/msg"
      [
        {
          Chart.label = "Conv-I";
          points =
            List.map
              (fun p -> (p.F.rate, p.F.conv.Ldlp_model.Simrun.imisses_per_msg))
              points;
        };
        {
          Chart.label = "Ldlp-I";
          points =
            List.map
              (fun p -> (p.F.rate, p.F.ldlp.Ldlp_model.Simrun.imisses_per_msg))
              points;
        };
        {
          Chart.label = "ldlp-D";
          points =
            List.map
              (fun p -> (p.F.rate, p.F.ldlp.Ldlp_model.Simrun.dmisses_per_msg))
              points;
        };
      ]
  in
  rate_table points row
    ~title:
      "Figure 5 — cache misses per message vs arrival rate (Poisson, 552 B)"
    ~header
  ^ "\n" ^ chart

let fig6 points =
  let header =
    [
      "Rate (msg/s)"; "Conv mean"; "Conv p99"; "LDLP mean"; "LDLP p99";
      "Conv drop"; "LDLP drop";
    ]
  in
  let row (p : F.rate_point) =
    [
      f0 p.F.rate;
      si p.F.conv.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.conv.Ldlp_model.Simrun.p99_latency ^ "s";
      si p.F.ldlp.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.ldlp.Ldlp_model.Simrun.p99_latency ^ "s";
      string_of_int p.F.conv.Ldlp_model.Simrun.dropped;
      string_of_int p.F.ldlp.Ldlp_model.Simrun.dropped;
    ]
  in
  let chart =
    Chart.plot ~logy:true ~x_label:"arrival rate (msg/s)" ~y_label:"latency (s)"
      [
        {
          Chart.label = "Conv";
          points =
            List.map
              (fun p -> (p.F.rate, p.F.conv.Ldlp_model.Simrun.mean_latency))
              points;
        };
        {
          Chart.label = "Ldlp";
          points =
            List.map
              (fun p -> (p.F.rate, p.F.ldlp.Ldlp_model.Simrun.mean_latency))
              points;
        };
      ]
  in
  rate_table points row
    ~title:"Figure 6 — latency vs arrival rate (Poisson, 552 B)" ~header
  ^ "\n" ^ chart

let fig7 points =
  let header =
    [ "Clock (MHz)"; "Conv mean"; "LDLP mean"; "LDLP batch"; "Conv drop"; "LDLP drop" ]
  in
  let row (p : F.clock_point) =
    [
      f0 p.F.clock_mhz;
      si p.F.cv.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.ld.Ldlp_model.Simrun.mean_latency ^ "s";
      f1 p.F.ld.Ldlp_model.Simrun.mean_batch;
      string_of_int p.F.cv.Ldlp_model.Simrun.dropped;
      string_of_int p.F.ld.Ldlp_model.Simrun.dropped;
    ]
  in
  let chart =
    Chart.plot ~logy:true ~x_label:"CPU clock (MHz)" ~y_label:"latency (s)"
      [
        {
          Chart.label = "Conv";
          points =
            List.map
              (fun p -> (p.F.clock_mhz, p.F.cv.Ldlp_model.Simrun.mean_latency))
              points;
        };
        {
          Chart.label = "Ldlp";
          points =
            List.map
              (fun p -> (p.F.clock_mhz, p.F.ld.Ldlp_model.Simrun.mean_latency))
              points;
        };
      ]
  in
  "Figure 7 — latency vs CPU clock (self-similar Ethernet-like traffic)\n"
  ^ Table.render ~header (List.map row points)
  ^ "\n" ^ chart

let fig8 points =
  let module C = Ldlp_model.Cksum_study in
  let header =
    [ "Bytes"; "4.4BSD warm"; "4.4BSD cold"; "Simple warm"; "Simple cold" ]
  in
  let row (p : C.point) =
    [
      string_of_int p.C.msg_bytes;
      f0 p.C.elaborate_warm;
      f0 p.C.elaborate_cold;
      f0 p.C.simple_warm;
      f0 p.C.simple_cold;
    ]
  in
  let chart =
    Chart.plot ~x_label:"message size (bytes)" ~y_label:"cycles"
      [
        {
          Chart.label = "Elab-cold";
          points =
            List.map (fun p -> (float_of_int p.C.msg_bytes, p.C.elaborate_cold)) points;
        };
        {
          Chart.label = "Simp-cold";
          points =
            List.map (fun p -> (float_of_int p.C.msg_bytes, p.C.simple_cold)) points;
        };
        {
          Chart.label = "eLab-warm";
          points =
            List.map (fun p -> (float_of_int p.C.msg_bytes, p.C.elaborate_warm)) points;
        };
        {
          Chart.label = "sImp-warm";
          points =
            List.map (fun p -> (float_of_int p.C.msg_bytes, p.C.simple_warm)) points;
        };
      ]
  in
  Printf.sprintf
    "Figure 8 — cache effects in checksum routines (cycles)\n\
     cold crossover: %d bytes (paper: ~900); fill cost: %.0f vs %.0f cycles \
     (paper: 426 vs 176)\n"
    (C.cold_crossover ())
    (C.fill_cost ~routine:`Elaborate ~msg_bytes:40)
    (C.fill_cost ~routine:`Simple ~msg_bytes:40)
  ^ Table.render ~header
      (List.filteri (fun i _ -> i mod 4 = 0) (List.map row points))
  ^ "\n" ^ chart

let ablation_batch points =
  let header =
    [ "Policy"; "Latency"; "I/msg"; "D/msg"; "Mean batch"; "Drops" ]
  in
  let row (p : F.batch_point) =
    [
      Format.asprintf "%a" Ldlp_core.Batch.pp p.F.policy;
      si p.F.r.Ldlp_model.Simrun.mean_latency ^ "s";
      f1 p.F.r.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.r.Ldlp_model.Simrun.dmisses_per_msg;
      f1 p.F.r.Ldlp_model.Simrun.mean_batch;
      string_of_int p.F.r.Ldlp_model.Simrun.dropped;
    ]
  in
  "Ablation — batch policy at 8000 msg/s (Section 3.2)\n"
  ^ Table.render ~header (List.map row points)

let ablation_density points =
  let header =
    [ "Code scale"; "Conv latency"; "LDLP latency"; "Conv I/msg"; "LDLP I/msg"; "LDLP gain" ]
  in
  let row (p : F.density_point) =
    let gain =
      p.F.dc.Ldlp_model.Simrun.mean_latency
      /. Float.max 1e-9 p.F.dl.Ldlp_model.Simrun.mean_latency
    in
    [
      Printf.sprintf "%.2f" p.F.code_scale;
      si p.F.dc.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.dl.Ldlp_model.Simrun.mean_latency ^ "s";
      f1 p.F.dc.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.dl.Ldlp_model.Simrun.imisses_per_msg;
      Printf.sprintf "%.2fx" gain;
    ]
  in
  "Ablation — code density (Section 5.2: CISC-sized code narrows LDLP's \
   advantage)\n"
  ^ Table.render ~header (List.map row points)

let ablation_linesize points =
  let header =
    [ "Line bytes"; "Conv I/msg"; "LDLP I/msg"; "Conv latency"; "LDLP latency" ]
  in
  let row (p : F.linesize_point) =
    [
      string_of_int p.F.line_bytes;
      f1 p.F.lc.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.ll.Ldlp_model.Simrun.imisses_per_msg;
      si p.F.lc.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.ll.Ldlp_model.Simrun.mean_latency ^ "s";
    ]
  in
  "Ablation — I/D cache line size (Section 5.3)\n"
  ^ Table.render ~header (List.map row points)

let ablation_dilution (d : A.dilution) =
  Printf.sprintf
    "Ablation — cache dilution (Section 5.4)\n\
     touched code bytes:    %d\n\
     bytes in touched lines: %d\n\
     dilution:              %.1f%% of fetched bytes never execute (paper: ~25%%)\n\
     dense layout would use %d lines instead of %d (-%.0f%%)\n"
    d.A.touched_code_bytes d.A.line_code_bytes
    (100.0 *. d.A.dilution_fraction)
    d.A.dense_lines d.A.sparse_lines
    (100.0
    *. (1.0 -. (float_of_int d.A.dense_lines /. float_of_int d.A.sparse_lines)))

let ablation_relayout (c : Ldlp_trace.Relayout.comparison) =
  Printf.sprintf
    "Ablation — Cord-style dense re-layout, executed (Section 5.4)\n\
     code working-set lines: %d sparse -> %d dense (saving %.0f%%, paper: ~25%%)\n\
     cold-cache replay I-misses per packet: %d -> %d\n"
    c.Ldlp_trace.Relayout.sparse_lines c.Ldlp_trace.Relayout.dense_lines
    (100.0 *. c.Ldlp_trace.Relayout.line_saving)
    c.Ldlp_trace.Relayout.sparse_imisses c.Ldlp_trace.Relayout.dense_imisses

let machine_rows title points =
  let header =
    [ "Machine"; "Conv I/msg"; "LDLP I/msg"; "Conv latency"; "LDLP latency" ]
  in
  let row (p : F.machine_point) =
    [
      p.F.label;
      f1 p.F.mc.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.ml.Ldlp_model.Simrun.imisses_per_msg;
      si p.F.mc.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.ml.Ldlp_model.Simrun.mean_latency ^ "s";
    ]
  in
  title ^ "\n" ^ Table.render ~header (List.map row points)

let ablation_associativity points =
  let header =
    [ "Ways"; "Conv I/msg"; "LDLP I/msg"; "Conv latency"; "LDLP latency" ]
  in
  let row (p : F.assoc_point) =
    [
      string_of_int p.F.ways;
      f1 p.F.ac.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.al.Ldlp_model.Simrun.imisses_per_msg;
      si p.F.ac.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.al.Ldlp_model.Simrun.mean_latency ^ "s";
    ]
  in
  "Ablation — cache associativity (conflict misses under random layout)\n"
  ^ Table.render ~header (List.map row points)

let ablation_prefetch points =
  let header =
    [ "Prefetch discount"; "Conv latency"; "LDLP latency"; "LDLP gain" ]
  in
  let row (p : F.prefetch_point) =
    let gain =
      p.F.pc.Ldlp_model.Simrun.mean_latency
      /. Float.max 1e-9 p.F.pl.Ldlp_model.Simrun.mean_latency
    in
    [
      Printf.sprintf "%.2f" p.F.discount;
      si p.F.pc.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.pl.Ldlp_model.Simrun.mean_latency ^ "s";
      Printf.sprintf "%.2fx" gain;
    ]
  in
  "Ablation — sequential I-prefetch (Section 4: prefetching hides part of \
   the miss cost)\n"
  ^ Table.render ~header (List.map row points)

let ablation_unified points =
  machine_rows
    "Ablation — split 8K+8K vs unified 16K caches (Figure 4 caption)" points

let ablation_layout points =
  machine_rows
    "Ablation — random vs dense (Cord-style) code placement (Section 5.4)"
    points

let extension_txside points =
  let header =
    [
      "Rate"; "RX conv I/msg"; "RX LDLP I/msg"; "TX conv I/msg"; "TX LDLP I/msg";
      "TX LDLP batch";
    ]
  in
  let row (p : F.txside_point) =
    [
      f0 p.F.tx_rate;
      f1 p.F.rx_conv.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.rx_ldlp.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.tx_conv.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.tx_ldlp.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.tx_ldlp.Ldlp_model.Simrun.mean_batch;
    ]
  in
  "Extension — transmit-side LDLP (deferred in the paper, Section 1)\n"
  ^ Table.render ~header (List.map row points)

let ablation_granularity points =
  let header =
    [
      "Layers"; "KB each"; "Conv latency"; "LDLP latency"; "LDLP I/msg";
      "LDLP thruput";
    ]
  in
  let row (p : F.granularity_point) =
    [
      string_of_int p.F.nlayers;
      Printf.sprintf "%.1f" p.F.layer_kb;
      si p.F.gc.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.gl.Ldlp_model.Simrun.mean_latency ^ "s";
      f1 p.F.gl.Ldlp_model.Simrun.imisses_per_msg;
      f0 p.F.gl.Ldlp_model.Simrun.throughput;
    ]
  in
  let advisor =
    Ldlp_core.Blocking.group_layers Ldlp_core.Blocking.paper_machine
      (List.init 10 (fun _ -> 3072))
  in
  "Ablation — layer granularity at constant totals (Section 6: group \
   layers to fit the cache)\n"
  ^ Table.render ~header (List.map row points)
  ^ Printf.sprintf
      "advisor: Blocking.group_layers packs the 10x3KB stack into %d \
       cache-sized groups of %s layers\n"
      (List.length advisor)
      (String.concat "/" (List.map (fun g -> string_of_int (List.length g)) advisor))

let extension_tcp_stack points =
  let header =
    [
      "Rate"; "Conv I/msg"; "LDLP I/msg"; "Conv latency"; "LDLP latency";
      "LDLP batch";
    ]
  in
  let row (p : F.tcp_stack_point) =
    [
      f0 p.F.t_rate;
      f1 p.F.tc.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.tl.Ldlp_model.Simrun.imisses_per_msg;
      si p.F.tc.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.tl.Ldlp_model.Simrun.mean_latency ^ "s";
      f1 p.F.tl.Ldlp_model.Simrun.mean_batch;
    ]
  in
  "Extension — LDLP on the real Table 1 TCP/IP footprints (Section 6's \
   \"surprise\" claim)\n"
  ^ Table.render ~header (List.map row points)

let comparison_ilp points =
  let header =
    [
      "Rate"; "Conv I/msg"; "ILP I/msg"; "LDLP I/msg"; "Conv D/msg";
      "ILP D/msg"; "LDLP D/msg"; "Conv lat"; "ILP lat"; "LDLP lat";
    ]
  in
  let row (p : F.ilp_point) =
    [
      f0 p.F.irate;
      f1 p.F.i_conv.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.i_ilp.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.i_ldlp.Ldlp_model.Simrun.imisses_per_msg;
      f1 p.F.i_conv.Ldlp_model.Simrun.dmisses_per_msg;
      f1 p.F.i_ilp.Ldlp_model.Simrun.dmisses_per_msg;
      f1 p.F.i_ldlp.Ldlp_model.Simrun.dmisses_per_msg;
      si p.F.i_conv.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.i_ilp.Ldlp_model.Simrun.mean_latency ^ "s";
      si p.F.i_ldlp.Ldlp_model.Simrun.mean_latency ^ "s";
    ]
  in
  "Comparison — Conventional vs ILP vs LDLP (the three loop structures of \
   Figures 2/3)\n"
  ^ Table.render ~header (List.map row points)

let extension_goal (g : F.goal_check) =
  let line name (r : Ldlp_model.Simrun.result) =
    Printf.sprintf
      "  %-13s throughput %7.0f msg/s  mean latency %8s  p99 %8s  drops %d\n"
      name r.Ldlp_model.Simrun.throughput
      (si r.Ldlp_model.Simrun.mean_latency ^ "s")
      (si r.Ldlp_model.Simrun.p99_latency ^ "s")
      r.Ldlp_model.Simrun.dropped
  in
  let cap d = d.Ldlp_model.Simrun.throughput /. g.F.offered *. 100.0 in
  Printf.sprintf
    "Goal check — Section 1: 10000 setup/teardown pairs/s at ~100 us per \
     message\noffered: %.0f signalling msgs/s on the paper's 100 MHz machine\n"
    g.F.offered
  ^ line "conventional" g.F.g_conv
  ^ line "ldlp" g.F.g_ldlp
  ^ line "ldlp @ 80%" g.F.g_ldlp_backoff
  ^ Printf.sprintf
      "  verdict: conventional sustains %.0f%% of the goal rate, LDLP %.0f%%;\n\
      \  at 80%% load LDLP serves each message in %s mean — the residual gap\n\
      \  to 100 us is execution cycles, not cache misses, so a faster (or\n\
      \  CISC-denser) CPU closes it while conventional scheduling stays\n\
      \  memory-bound.\n"
      (cap g.F.g_conv) (cap g.F.g_ldlp)
      (si g.F.g_ldlp_backoff.Ldlp_model.Simrun.mean_latency ^ "s")

let blocking r =
  "Blocking analysis for the paper's synthetic stack (Section 3.2)\n"
  ^ Format.asprintf "%a\n" Ldlp_core.Blocking.pp_recommendation r

(* ---------- observability ---------- *)

module Metrics = Ldlp_obs.Metrics
module Simrun = Ldlp_model.Simrun
module Params = Ldlp_model.Params

(* The impairment engine's per-cause counters as a scalar sheet: one
   deterministic chaos replay (plan + seed), published through
   [Impair.metrics_scalars] so the stats command shows the same ledger
   the fault oracles audit.  All simulated — identical on any host. *)
let fault_sheet ~seed =
  let plan =
    Ldlp_fault.Plan.v ~drop:0.05 ~dup:0.02 ~corrupt:0.01 ~reorder:0.1
      ~reorder_window:4 ~down:[ (0.04, 0.05) ] ()
  in
  let imp = Ldlp_fault.Impair.create ~seed plan in
  let frames = 2000 in
  for i = 0 to frames - 1 do
    ignore (Ldlp_fault.Impair.send imp ~now:(float i *. 5e-5) i)
  done;
  ignore (Ldlp_fault.Impair.flush imp);
  let label =
    Printf.sprintf "fault replay: %s, %d frames"
      (Ldlp_fault.Plan.describe plan)
      frames
  in
  let m = Metrics.create ~label ~layer_names:[] in
  Ldlp_fault.Impair.metrics_scalars m imp;
  m

(* The PCB table's lookup split as a scalar sheet: a deterministic
   tcpmini replay — one listener, a fleet of accepted connections, then a
   lookup stream that mixes repeat traffic (one-entry cache hits),
   connection changes (table hits) and unknown remotes (misses, the slow
   demultiplexing path).  The [flow.table.*] scalars underneath count the
   table behind the cache: its lookups, hits and misses, inserts, removes
   and entries.  It has no modeled front cache; the `flows` study keeps
   that ledger.  All simulated — identical on any host. *)
let flow_sheet ~seed =
  let module Pcb = Ldlp_tcpmini.Pcb in
  let module Ipv4 = Ldlp_packet.Addr.Ipv4 in
  let rng = Ldlp_sim.Rng.create ~seed in
  let table = Pcb.create_table () in
  let listener = Pcb.listen table ~port:80 () in
  let remotes =
    Array.init 96 (fun i ->
        (Ipv4.of_string (Printf.sprintf "10.0.%d.%d" (i / 64) (1 + (i mod 64))),
         4000 + i))
  in
  Array.iter
    (fun remote -> ignore (Pcb.insert_connection table ~listener ~remote))
    remotes;
  let lookups = 4096 in
  for _ = 1 to lookups do
    match Ldlp_sim.Rng.int rng 100 with
    | r when r < 90 ->
      (* Established traffic, skewed so the one-entry cache sees trains. *)
      let i =
        if Ldlp_sim.Rng.int rng 100 < 60 then Ldlp_sim.Rng.int rng 4
        else Ldlp_sim.Rng.int rng (Array.length remotes)
      in
      ignore (Pcb.lookup table ~local_port:80 ~remote:remotes.(i))
    | _ ->
      (* An unknown remote: connection-table miss, listener slow path. *)
      let stray = (Ipv4.of_string "10.9.9.9", 50000 + Ldlp_sim.Rng.int rng 64) in
      ignore (Pcb.lookup table ~local_port:80 ~remote:stray)
  done;
  (match Pcb.lookup table ~local_port:80 ~remote:remotes.(0) with
  | Some pcb when pcb != listener -> Pcb.drop table pcb
  | _ -> ());
  let label =
    Printf.sprintf "flow table: %d connections, %d lookups"
      (Array.length remotes) lookups
  in
  let m = Metrics.create ~label ~layer_names:[] in
  Pcb.metrics_scalars m table;
  m

(* One metric sheet per run index, merged in index order.  Each index
   derives its own seed, so the work can spread over any number of
   domains and still merge to the same sheet — the merge demonstration
   for [Ldlp_par.Pool]. *)
let observability_sheets ?domains ?(params = Params.quick) ?(seed = 1996)
    ?(rate = 9000.0) () =
  let names = Simrun.layer_names params in
  let sheet_of discipline =
    let label =
      Printf.sprintf "%s @ %.0f msg/s" (Simrun.discipline_name discipline) rate
    in
    let per_run =
      Ldlp_par.Pool.map ?domains
        (fun i ->
          let master = Ldlp_sim.Rng.create ~seed:(seed + (7919 * (i + 1))) in
          let rng = Ldlp_sim.Rng.split master in
          let source =
            Ldlp_traffic.Source.limit_time
              (Ldlp_traffic.Poisson.source
                 ~rng:(Ldlp_sim.Rng.split master)
                 ~rate ~size:params.Params.msg_bytes ())
              params.Params.seconds
          in
          let m = Metrics.create ~label ~layer_names:names in
          ignore (Simrun.run_once ~params ~discipline ~rng ~source ~metrics:m ());
          m)
        (List.init params.Params.runs Fun.id)
    in
    let dst = Metrics.create ~label ~layer_names:names in
    List.iter (fun src -> Metrics.merge_into ~dst src) per_run;
    dst
  in
  [
    sheet_of Simrun.Conventional;
    sheet_of Simrun.Ldlp;
    fault_sheet ~seed;
    flow_sheet ~seed;
  ]

let observability ?domains ?(params = Params.quick) ?(seed = 1996)
    ?(rate = 9000.0) () =
  let sheets = observability_sheets ?domains ~params ~seed ~rate () in
  Printf.sprintf
    "Observability — per-layer counters under load (seed %d, %d runs x %.1f \
     s, Poisson %.0f msg/s, %d B)\n\n"
    seed params.Params.runs params.Params.seconds rate params.Params.msg_bytes
  ^ String.concat "\n" (List.map Metrics.render sheets)

(* ---------- document contents ---------- *)

let stats_doc sheets =
  let module H = Ldlp_obs.Histogram in
  let hist h =
    Schema.(
      Rec [ I (H.count h); F (H.mean h); I (H.median h); I (H.quantile h 0.99); I (H.max_value h) ])
  in
  let layer (l : Metrics.layer) =
    Schema.
      [
        S l.Metrics.l_name; I l.Metrics.handled; I l.Metrics.quanta;
        I l.Metrics.exec_cycles; I l.Metrics.stall_cycles; I l.Metrics.imisses;
        I l.Metrics.dmisses; I l.Metrics.wmisses; I l.Metrics.queue_peak;
      ]
  in
  let sheet m =
    Schema.
      [
        S (Metrics.label m); I (Metrics.messages m); I (Metrics.batches m);
        Rows (List.init (Metrics.nlayers m) (fun i -> layer (Metrics.layer m i)));
        Rows (List.map (fun (name, v) -> [ S name; I v ]) (Metrics.scalars m));
        hist (Metrics.batch_hist m); hist (Metrics.depth_hist m);
        hist (Metrics.latency_hist m);
      ]
  in
  [ Schema.Rows (List.map sheet sheets) ]
