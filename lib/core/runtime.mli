(** Executable runtime: drive a real layer stack with scheduled arrivals
    and measure end-to-end behaviour.

    This is the "adopt LDLP in a real stack" entry point: give it layers,
    a discipline and a workload, and it reports throughput, latency
    distribution, drop counts and batching behaviour.  Arrival times are
    virtual (from the workload); execution is the real handler code.  The
    runtime models the arrival/processing race the paper describes: the
    stack takes all messages that have arrived by the time it finishes the
    previous batch.

    The [service] function gives each message's processing cost in seconds
    of virtual time (e.g. from {!Blocking.misses_per_msg} — or a constant
    for simple experiments); real wall-clock measurement of handler code
    belongs to the benchmark harness, which uses Bechamel. *)

type workload = { at : float; size : int; flow : int }

type report = {
  offered : int;
  processed : int;  (** Delivered or consumed. *)
  dropped : int;  (** Arrivals rejected because the buffer was full. *)
  duration : float;  (** Virtual time span of the run. *)
  throughput : float;  (** Processed per second of virtual time. *)
  latency : Ldlp_sim.Hist.t;  (** Arrival-to-completion latency. *)
  stats : Engine.stats;
}

val run :
  discipline:Engine.discipline ->
  layers:Ldlp_buf.Mbuf.t Layer.t list ->
  make_payload:(size:int -> Ldlp_buf.Mbuf.t) ->
  ?service:(batch:int -> Ldlp_buf.Mbuf.t Msg.t -> float) ->
  workload list ->
  report
(** Arrivals finding 500 messages buffered (the paper's Figure 6 buffer)
    are dropped.  Default [service] zero-cost (pure functional check).  The per-message service
    time receives the batch size the message was processed under, so
    callers can model the amortisation LDLP buys. *)

val poisson_workload :
  rng:Ldlp_sim.Rng.t -> rate:float -> duration:float -> size:int -> workload list
