(** Text rendering of every reproduced table and figure, with the paper's
    published values alongside for direct comparison.  Used by both the
    CLI ([bin/ldlp_repro]) and the benchmark harness. *)

val table1 : Ldlp_trace.Analyze.table1 -> string
(** Working-set breakdown vs the paper's Table 1 targets. *)

val table3 : Ldlp_trace.Analyze.sweep_row list -> string
(** Line-size sensitivity vs the paper's Table 3 percentages. *)

val figure1 :
  Ldlp_trace.Analyze.phase_summary list ->
  Ldlp_trace.Analyze.func_touch list ->
  string
(** Per-phase working-set summary and the per-function map. *)

val fig5 : Ldlp_model.Figures.rate_point list -> string
(** Cache misses per message vs arrival rate (table + ASCII chart). *)

val fig6 : Ldlp_model.Figures.rate_point list -> string
(** Latency vs arrival rate. *)

val fig7 : Ldlp_model.Figures.clock_point list -> string
(** Latency vs CPU clock under self-similar traffic. *)

val fig8 : Ldlp_model.Cksum_study.point list -> string
(** Checksum cycles vs message size, warm/cold x simple/elaborate. *)

val ablation_batch : Ldlp_model.Figures.batch_point list -> string

val ablation_density : Ldlp_model.Figures.density_point list -> string

val ablation_linesize : Ldlp_model.Figures.linesize_point list -> string

val ablation_dilution : Ldlp_trace.Analyze.dilution -> string

val ablation_relayout : Ldlp_trace.Relayout.comparison -> string

val ablation_associativity : Ldlp_model.Figures.assoc_point list -> string

val ablation_prefetch : Ldlp_model.Figures.prefetch_point list -> string

val ablation_unified : Ldlp_model.Figures.machine_point list -> string

val ablation_layout : Ldlp_model.Figures.machine_point list -> string

val extension_txside : Ldlp_model.Figures.txside_point list -> string
(** The transmit-side mirror experiment (deferred by the paper). *)

val ablation_granularity : Ldlp_model.Figures.granularity_point list -> string

val extension_tcp_stack : Ldlp_model.Figures.tcp_stack_point list -> string

val comparison_ilp : Ldlp_model.Figures.ilp_point list -> string
(** Conventional vs ILP vs LDLP (Figures 2/3's three loop structures). *)

val extension_goal : Ldlp_model.Figures.goal_check -> string
(** The Section 1 signalling performance goal, checked. *)

val blocking : Ldlp_core.Blocking.recommendation -> string
(** The analytic Section 3.2 estimate for the paper's synthetic stack. *)

val observability_sheets :
  ?domains:int ->
  ?params:Ldlp_model.Params.t ->
  ?seed:int ->
  ?rate:float ->
  unit ->
  Ldlp_obs.Metrics.t list
(** The [stats] command's data: one merged metric sheet per discipline
    ([Conventional; Ldlp]), collected from [params.runs] independent
    {!Ldlp_model.Simrun} runs under Poisson load at [rate] (default 9000
    msg/s — well into the region where batching matters), plus a scalar
    sheet of {!Ldlp_fault.Impair} per-cause counters from one
    deterministic chaos replay (drops, duplicates, corruptions, reorder
    holds, down-episode drops, teardown flushes).  Run indices derive
    independent seeds and execute on the {!Ldlp_par.Pool}, so the merged
    sheets are identical for any [domains].  The {!Ldlp_obs.Obs} gate is
    forced on for the duration; the sheets hold only simulated counters,
    so the result is deterministic per seed. *)

val observability :
  ?domains:int ->
  ?params:Ldlp_model.Params.t ->
  ?seed:int ->
  ?rate:float ->
  unit ->
  string
(** {!observability_sheets} rendered as deterministic text (the golden
    snapshot of the [stats] command). *)

(** {1 Document contents} *)

val stats_doc : Ldlp_obs.Metrics.t list -> Schema.value list
(** {!Schema.stats} contents for a list of metric sheets: per-layer
    counter rows, scalars and batch/depth/latency histogram summaries
    (count, mean, p50, p99, max). *)
