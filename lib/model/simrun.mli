(** Cycle-accurate simulation of the synthetic five-layer stack under the
    three scheduling disciplines of Figures 2/3.

    The simulator drives the real {!Ldlp_core.Engine} scheduler; each layer's
    handler charges the {!Ldlp_cache.Memsys} for its code fetch, its private
    data, and the message bytes, and virtual time is the accumulated cycle
    count divided by the clock.  The arrival process and the processor race
    exactly as in the paper's on-line algorithm: when the stack finishes a
    quantum it takes everything that has arrived in the meantime. *)

type discipline = Conventional | Ilp | Ldlp
(** [Ilp] is conventional scheduling with the per-layer data loops
    integrated: message bytes are touched once per message instead of once
    per layer (Figure 2, middle column). *)

val discipline_name : discipline -> string

val layer_names : Params.t -> string list
(** The synthetic stack's layer names (["L1"; ...]), bottom-first — the
    row shape a metric sheet passed to [run_once]/[run_avg] must have. *)

type result = {
  discipline : discipline;
  offered : int;
  processed : int;
  dropped : int;
  mean_latency : float;
  p50_latency : float;
  p99_latency : float;
  imisses_per_msg : float;
  dmisses_per_msg : float;
  mean_batch : float;
  max_batch : int;
  throughput : float;  (** Processed messages per simulated second. *)
  tx_msgs : int;
      (** [`Duplex] only: replies that reached the wire sink (0 for the
          single-direction runs). *)
  tx_runs : int;
      (** [`Duplex] only: scheduling switches into transmit-side nodes.
          [tx_msgs / tx_runs] is the cross-direction batch amortisation —
          wire messages per reload of the transmit-side working set. *)
}

val run_once :
  params:Params.t ->
  discipline:discipline ->
  rng:Ldlp_sim.Rng.t ->
  source:Ldlp_traffic.Source.t ->
  ?metrics:Ldlp_obs.Metrics.t ->
  ?probe:(layer:int -> Ldlp_cache.Memsys.event -> unit) ->
  unit ->
  result
(** One receive-side run: one random code/data/buffer placement drawn from
    [rng], one arrival stream.

    [metrics] (shape {!layer_names}) is forwarded to the scheduler and
    additionally charged with every memory-system delta, attributed to the
    layer that caused it, plus latency samples and "offered"/"dropped"
    scalars.  [probe] observes the raw {!Ldlp_cache.Memsys} event stream
    tagged with the charging layer ([-1] outside any handler) — the hook
    the observability differential test uses to re-derive the per-layer
    miss counters independently. *)

val run_avg :
  ?direction:[ `Receive | `Transmit | `Duplex ] ->
  params:Params.t ->
  discipline:discipline ->
  seed:int ->
  make_source:(Ldlp_sim.Rng.t -> Ldlp_traffic.Source.t) ->
  ?clock_hz:float ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  result
(** Average of [params.runs] runs, each with an independent layout and
    arrival stream — the paper's "100 runs, each with a different random
    placement in memory".  A [metrics] sheet accumulates across all runs
    (sheets are pure sums, so this equals merging per-run sheets).

    [clock_hz] overrides the params clock (Figure 7).  [direction]
    selects receive-side scheduling (the paper's evaluation, default),
    transmit-side (the mirror experiment the paper mentions but does not
    evaluate: messages enter at the top layer and complete on reaching
    the wire), or [`Duplex] — both directions of the stack under one
    {!Ldlp_core.Engine.duplex}: arrivals climb the receive nodes and
    complete at delivery, and the top layer answers each with a small
    reply that descends the transmit nodes of the same scheduling pass
    (transmit-side code/data get their own independently placed regions,
    so the reply traffic has a real working set to amortise; a [metrics]
    sheet then needs [2n] rows). *)
