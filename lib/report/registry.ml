module F = Ldlp_model.Figures
module P = Ldlp_model.Params
module R = Report

type context = {
  domains : int option;
  params : P.t;
  seed : int;
  rates : F.rate_point list Lazy.t;
}

let context ?domains ?(params = P.quick) ?(seed = 1996) () =
  { domains; params; seed; rates = lazy (F.rate_sweep ?domains ~params ~seed ()) }

type inputs = Fixed | Seeded | Swept

type t = {
  name : string;
  command : string;
  doc : string;
  inputs : inputs;
  render : context -> string;
}

let figure ?command name doc inputs render =
  { name; command = Option.value command ~default:name; doc; inputs; render }

let ablation name =
  figure ~command:"ablations" name
    "The Section 5 ablations: batch policy, code density, line size, \
     dilution, re-layout, associativity, prefetch, unified caches, layout."

(* The paper's synthetic stack, as the Section 3.2 analysis sees it. *)
let paper_stack =
  let p = P.paper in
  {
    Ldlp_core.Blocking.layer_code_bytes =
      List.init p.P.layers (fun _ -> p.P.layer_code_bytes);
    layer_data_bytes = List.init p.P.layers (fun _ -> p.P.layer_data_bytes);
    msg_bytes = p.P.msg_bytes;
    cycles_per_msg = p.P.layers * P.cycles_per_layer p ~msg_bytes:p.P.msg_bytes;
  }

let all =
  [
    figure "table1" "Working-set breakdown of the TCP receive path (Table 1)."
      Fixed (fun _ -> R.table1 (F.table1 ()));
    figure "table3" "Cache-line-size sensitivity (Table 3)." Fixed (fun _ ->
        R.table3 (F.table3 ()));
    figure "fig1" "Per-phase / per-function working-set map (Figure 1)." Fixed
      (fun _ ->
        let phases, funcs = F.figure1 () in
        R.figure1 phases funcs);
    figure "fig5" "Cache misses per message vs arrival rate (Figure 5)." Swept
      (fun c -> R.fig5 (Lazy.force c.rates));
    figure "fig6" "Latency vs arrival rate (Figure 6)." Swept (fun c ->
        R.fig6 (Lazy.force c.rates));
    figure "fig7" "Latency vs CPU clock, self-similar traffic (Figure 7)." Swept
      (fun c ->
        R.fig7 (F.clock_sweep ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    figure "fig8" "Checksum cache-effects study (Figure 8)." Fixed (fun _ ->
        R.fig8 (F.fig8 ()));
    figure "blocking" "Analytic blocking-factor recommendation (Section 3.2)."
      Fixed (fun _ ->
        R.blocking
          (Ldlp_core.Blocking.recommend Ldlp_core.Blocking.paper_machine paper_stack));
    ablation "ablation_batch" Swept (fun c ->
        R.ablation_batch
          (F.ablation_batch ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    ablation "ablation_density" Swept (fun c ->
        R.ablation_density
          (F.ablation_density ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    ablation "ablation_linesize" Swept (fun c ->
        R.ablation_linesize
          (F.ablation_linesize ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    ablation "ablation_dilution" Fixed (fun _ ->
        R.ablation_dilution (F.ablation_dilution ()));
    ablation "ablation_relayout" Fixed (fun _ ->
        R.ablation_relayout (F.ablation_relayout ()));
    ablation "ablation_associativity" Swept (fun c ->
        R.ablation_associativity
          (F.ablation_associativity ?domains:c.domains ~params:c.params
             ~seed:c.seed ()));
    ablation "ablation_prefetch" Swept (fun c ->
        R.ablation_prefetch
          (F.ablation_prefetch ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    ablation "ablation_unified" Swept (fun c ->
        R.ablation_unified
          (F.ablation_unified ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    ablation "ablation_layout" Swept (fun c ->
        R.ablation_layout
          (F.ablation_layout ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    figure "txside" "Transmit-side LDLP extension experiment." Swept (fun c ->
        R.extension_txside
          (F.extension_txside ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    figure "ilp" "Conventional vs ILP vs LDLP comparison (Figures 2/3)." Swept
      (fun c ->
        R.comparison_ilp
          (F.comparison_ilp ?domains:c.domains ~params:c.params ~seed:c.seed ()));
    figure "goal" "Section 1 signalling performance goal check." Seeded (fun c ->
        R.extension_goal (F.extension_goal ?domains:c.domains ~seed:c.seed ()));
    figure "granularity" "Layer-granularity / grouping ablation (Section 6)."
      Seeded (fun c ->
        R.ablation_granularity
          (F.ablation_granularity ?domains:c.domains ~seed:c.seed ()));
    figure "tcpstack" "LDLP on the real Table 1 TCP/IP footprints (Section 6)."
      Seeded (fun c ->
        R.extension_tcp_stack
          (F.extension_tcp_stack ?domains:c.domains ~seed:c.seed ()));
  ]
