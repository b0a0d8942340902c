(** Generators for every table and figure in the paper's evaluation, plus
    the Section 5 ablations.  Each returns structured rows; the benchmark
    harness and the CLI render them as tables and ASCII charts. *)

type rate_point = {
  rate : float;  (** Offered messages/second. *)
  conv : Simrun.result;
  ldlp : Simrun.result;
}

val rate_sweep :
  ?domains:int ->
  ?params:Params.t ->
  ?seed:int ->
  ?rates:float list ->
  unit ->
  rate_point list
(** Poisson source, 552-byte messages — the common input of Figures 5
    and 6.  Default rates: 500..10000 step 500. *)

val default_rates : float list

type clock_point = {
  clock_mhz : float;
  cv : Simrun.result;
  ld : Simrun.result;
}

val clock_sweep :
  ?domains:int ->
  ?params:Params.t ->
  ?seed:int ->
  ?clocks_mhz:float list ->
  unit ->
  clock_point list
(** Figure 7: self-similar Ethernet-like arrivals (the Bellcore-trace
    substitute), latency vs CPU clock.  Default clocks: 10..80 MHz. *)

val fig8 : unit -> Cksum_study.point list

(** {1 Tables from the TCP/IP trace} *)

val table1 : unit -> Ldlp_trace.Analyze.table1

val table3 : unit -> Ldlp_trace.Analyze.sweep_row list

val figure1 :
  unit ->
  Ldlp_trace.Analyze.phase_summary list * Ldlp_trace.Analyze.func_touch list

(** {1 Ablations} *)

type batch_point = { policy : Ldlp_core.Batch.policy; at_rate : float; r : Simrun.result }

val ablation_batch :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> batch_point list
(** LDLP under different batch policies at one heavy rate, 8000 msg/s. *)

type density_point = {
  code_scale : float;  (** 1.0 = Alpha-sized code; ~0.5 = i386-sized. *)
  dc : Simrun.result;
  dl : Simrun.result;
}

val ablation_density :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> density_point list
(** Section 5.2: denser (CISC-like) code shrinks the working set, speeding
    up the conventional stack and shrinking LDLP's advantage.  At 6000
    msg/s, as are the line-size, associativity, prefetch, unified-cache
    and layout ablations. *)

type linesize_point = {
  line_bytes : int;
  lc : Simrun.result;
  ll : Simrun.result;
}

val ablation_linesize :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> linesize_point list
(** Section 5.3: larger I-cache lines cut miss counts for code. *)

val ablation_dilution : unit -> Ldlp_trace.Analyze.dilution
(** Section 5.4: how much of the fetched code is never executed, and what a
    dense (Cord/Mosberger-style) layout would save. *)

val ablation_relayout : unit -> Ldlp_trace.Relayout.comparison
(** Section 5.4, executed: pack the touched code ranges contiguously and
    replay the trace against a cold cache. *)

type assoc_point = {
  ways : int;
  ac : Simrun.result;
  al : Simrun.result;
}

val ablation_associativity :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> assoc_point list
(** Set-associative caches reduce the conflict misses that random layout
    causes (why the paper averages over 100 placements). *)

type prefetch_point = {
  discount : float;
  pc : Simrun.result;
  pl : Simrun.result;
}

val ablation_prefetch :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> prefetch_point list
(** Section 4's remark: second-level-cache instruction prefetch hides part
    of the miss cost, shrinking (but not erasing) LDLP's advantage. *)

type machine_point = {
  label : string;
  mc : Simrun.result;
  ml : Simrun.result;
}

val ablation_unified :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> machine_point list
(** Split 8 KB + 8 KB vs unified 16 KB (Figure 4's caption). *)

val ablation_layout :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> machine_point list
(** Random placement vs an idealised dense (Cord-style) layout
    (Section 5.4). *)

type ilp_point = {
  irate : float;
  i_conv : Simrun.result;
  i_ilp : Simrun.result;
  i_ldlp : Simrun.result;
}

val comparison_ilp :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> ilp_point list
(** The three-way comparison of Figures 2/3: conventional vs ILP vs LDLP,
    at 2000, 6000 and 9000 msg/s.  ILP integrates the data loops (message bytes touched once instead of
    once per layer) but keeps the message-major outer loop, so its
    I-cache behaviour matches conventional — the paper's argument for why
    ILP does not help small-message protocols. *)

type goal_check = {
  offered : float;  (** Signalling messages/second offered. *)
  g_conv : Simrun.result;
  g_ldlp : Simrun.result;
  g_ldlp_backoff : Simrun.result;
      (** The LDLP stack at 80% of the goal rate, where queueing latency
          is meaningful. *)
}

val extension_goal : ?domains:int -> ?seed:int -> unit -> goal_check
(** Section 1's target — "10000 pairs of setup/teardown requests per
    second with processing latency of 100 microseconds ... using just a
    commodity workstation processor" — checked against the paper's
    100 MHz machine with a four-layer signalling-sized stack
    (SSCOP + Q.93B + call control footprints, ~120-byte messages) at
    20 000 messages/second (two messages per pair). *)

type tcp_stack_point = {
  t_rate : float;
  tc : Simrun.result;
  tl : Simrun.result;
}

val extension_tcp_stack :
  ?domains:int ->
  ?seed:int -> unit -> tcp_stack_point list
(** Section 6's surprise claim, simulated: "It was a surprise to us that
    LDLP could be advantageous with protocols such as TCP."  Drives the
    scheduler with the {e actual} Table 1 working-set footprints (device,
    IP, TCP, socket, overhead categories as seven layers totalling
    30304 B of code) rather than the uniform synthetic stack. *)

type granularity_point = {
  nlayers : int;  (** The same 30 KB stack cut into this many layers. *)
  layer_kb : float;
  gc : Simrun.result;
  gl : Simrun.result;
}

val ablation_granularity :
  ?domains:int ->
  ?seed:int -> unit -> granularity_point list
(** Section 6's grouping advice, simulated: one 30 KB / 8260-cycle stack
    partitioned into 10 / 5 / 2 / 1 layers.  Finer layers pay more queue
    crossings; a single fused layer no longer fits the 8 KB I-cache and
    self-evicts, destroying LDLP's amortisation — the optimum is the
    cache-sized grouping that {!Ldlp_core.Blocking.group_layers}
    recommends. *)

type txside_point = {
  tx_rate : float;
  rx_conv : Simrun.result;
  rx_ldlp : Simrun.result;
  tx_conv : Simrun.result;
  tx_ldlp : Simrun.result;
}

val extension_txside :
  ?domains:int ->
  ?params:Params.t -> ?seed:int -> unit -> txside_point list
(** The experiment the paper defers (Section 1: transmit-side LDLP): the
    same synthetic stack driven top-down through {!Ldlp_core.Engine.tx_chain},
    side by side with the receive direction.  By symmetry the miss
    amortisation should match — this run demonstrates it. *)

val sweep_selftest : ?domains:int -> unit -> bool
(** Determinism check used by tests and [make check]: run a small rate
    sweep and clock sweep both sequentially ([domains = 1]) and with
    [domains] (default 2) worker domains, and compare the structured
    results for exact equality.  [true] means the parallel engine is
    observably identical to the sequential one. *)
