(** Many-host mesh simulation: N hosts, each running its protocol stack
    under an {!Ldlp_core.Engine}, wired over a random-regular
    {!Topology} with per-link {!Ldlp_fault.Plan} impairment, carrying a
    broadcast/relay spread protocol and Q.93B call storms — all driven
    by one deterministic discrete-event loop.

    {2 Two clocks}

    Every run keeps two notions of time:

    - the {b wire clock} ({!Ldlp_sim.Engine} virtual time) drives frame
      propagation, interrupt coalescing, fault injection and protocol
      timers.  It is {e identical across scheduling wirings by
      construction}: a frame is transmitted, impaired and delivered at
      the same instants whether the hosts schedule conventionally or
      with LDLP.  Consequently the per-link fault sequences — and
      therefore which copies are dropped, duplicated, corrupted or
      reordered — are a pure function of [(config, seed)], and the
      conv/LDLP/duplex runs of one config are comparable
      message-for-message (the equivalence oracle in
      {!Ldlp_check.Mesh_oracle} relies on exactly this);
    - the {b modeled CPU clock} accumulates per-host processing cost the
      way the paper's Section 4 simulator charges it: every scheduling
      switch into a layer refetches that layer's code working set (a
      reload), every handler invocation pays its execution cycles, and a
      message's {e penalty} is the modeled time from the start of its
      host's service quantum until its own last handler finished —
      queueing behind earlier messages of the batch included.  Penalties
      accumulate along the relay path and are added to the wire-clock
      transit time in the arrival-latency samples, so the per-wiring
      latency CDFs differ exactly where the disciplines differ: code
      working-set reloads.

    The feedback of CPU time onto the wire (a slow host delaying its own
    transmissions) is deliberately {e not} modeled — that coupling would
    make the fault sequence discipline-dependent and the equivalence
    oracle vacuous. *)

type wiring =
  | Conv  (** Per-message conventional scheduling, classic receive chain. *)
  | Ldlp  (** LDLP batching on the receive chain; per-message transmit. *)
  | Duplex
      (** LDLP over one full-duplex engine per host: relay copies cross
          into the transmit nodes of the same scheduling pass. *)

val wiring_name : wiring -> string

val all_wirings : wiring list
(** [[Conv; Ldlp; Duplex]], the comparison every table runs. *)

type config = {
  hosts : int;
  degree : int;
  seed : int;  (** Seeds topology, schedules and per-link impairment. *)
  broadcasts : int;  (** Spread-protocol injections per run. *)
  plan : Ldlp_fault.Plan.t;  (** Applied to every link, both directions. *)
  lifecycle : Ldlp_fault.Plan.host array;
      (** Per-host crash/restart schedule; [[||]] = every host immortal.
          When non-empty, must have one entry per host. *)
}

val config :
  ?hosts:int ->
  ?degree:int ->
  ?seed:int ->
  ?broadcasts:int ->
  ?plan:Ldlp_fault.Plan.t ->
  ?lifecycle:Ldlp_fault.Plan.host array ->
  unit ->
  config
(** Defaults: 64 hosts, degree 4, seed 1996, 16 broadcasts, pristine
    plan, no crashes.  Broadcasts carry 64-byte payloads and every link
    delays 100 us.  Validates the plan, the lifecycle and the topology
    constraints. *)

val chaos_plan : Ldlp_fault.Plan.t
(** The acceptance chaos mix shared with the soak matrix: 5% loss, 2%
    duplication, 0.1% corruption, 10% reordering over a 4-frame
    window. *)

(** {1 Broadcast/relay spread} *)

type causes = {
  offered : int;  (** Copies handed to the link impairment engines. *)
  fault_dropped : int;  (** Random per-link drops. *)
  down_dropped : int;  (** Copies sent into a link-down episode. *)
  duplicated : int;
  corrupted : int;
  reordered : int;
  flushed : int;  (** Still held by a reorder buffer at teardown. *)
  crashed : int;  (** Emissions arriving at a host that is down. *)
  arrived : int;  (** Emissions delivered into receive engines. *)
  corrupt_dropped : int;  (** Dropped by the mac layer (bad frame). *)
  dup_dropped : int;  (** Relay dedup: copy of an already-seen message. *)
  lost_in_crash : int;
      (** Frames parked at a NIC and wiped by the owner's crash. *)
  delivered : int;  (** First deliveries to the application layer. *)
  sig_delivered : int;  (** Call-storm frames handed to an endpoint. *)
}

type spread = {
  s_wiring : wiring;
  s_config : config;
  ecc0 : int;  (** Eccentricity of host 0 — topology summary. *)
  reach : int;  (** Total first deliveries ([= causes.delivered]). *)
  reach_full : int;  (** Broadcasts that reached all [hosts - 1] peers. *)
  s_causes : causes;
  s_conserved : bool;
  leak_free : bool;  (** Message-pool outstanding = 0 at quiescence. *)
  latency : Ldlp_sim.Hist.t;
      (** End-to-end arrival latency (wire transit + accumulated modeled
          CPU penalty), seconds; one sample per first delivery. *)
  per_host : int array;  (** First deliveries per host (oracle input). *)
  per_broadcast : int array;  (** Hosts reached per broadcast. *)
  handled : int;  (** Handler invocations, all hosts. *)
  reloads : int;  (** Modeled code working-set reloads, all hosts. *)
  mean_batch : float;  (** Mean entry-quantum batch size, all hosts. *)
  cpu_seconds : float;  (** Modeled CPU busy time, all hosts. *)
  wire_seconds : float;  (** Wire-clock time at quiescence. *)
}

val run_spread : wiring:wiring -> config -> spread
(** Flood [config.broadcasts] seeded broadcasts through the mesh and run
    the event loop to quiescence.  Deterministic: byte-identical results
    for the same [(wiring, config)] on any machine or domain count. *)

val compare_spread : ?domains:int -> config -> spread list
(** {!run_spread} for every wiring through {!Ldlp_par.Pool.map} — input
    order, and identical results for any [domains]. *)

(** {1 Q.93B call storm}

    Pairs of adjacent hosts run {!Ldlp_sigproto.Uni} endpoints over
    their (impaired) link, frames traveling through both hosts' engines
    like any other mesh traffic.  Each pair places [calls_per_pair]
    sequential setup/teardown pairs: SETUP, CONNECT, immediate RELEASE —
    the workload behind the paper's 10 000 pairs/s goal. *)

type storm = {
  t_wiring : wiring;
  pairs : int;  (** Endpoint pairs (distinct mesh links). *)
  calls_requested : int;
  calls_completed : int;  (** Full setup/teardown round trips. *)
  calls_failed : int;  (** Supervision-timer abandons (legacy driver). *)
  calls_abandoned : int;  (** Retry budget exhausted (recovery driver). *)
  calls_retried : int;  (** Re-originations after a failed attempt. *)
  setups_deferred : int;  (** Admission-control intake refusals. *)
  t_causes : causes;
  t_conserved : bool;
  t_leak_free : bool;
  storm_wire_seconds : float;  (** Wire time of the last completion. *)
  storm_cpu_seconds : float;  (** Modeled CPU busy time, all hosts. *)
  pair_done : int array;  (** Per canonical pair: calls completed. *)
  pair_abandoned : int array;  (** Per canonical pair: calls abandoned. *)
  ttr_samples : float list array;
      (** Per canonical pair, in completion order: wire seconds from the
          first failure of an outage to the next completed call —
          time-to-recover. *)
}

val run_storm :
  wiring:wiring -> ?pairs:int -> ?calls_per_pair:int -> config -> storm
(** Defaults: [max 1 (hosts / 8)] pairs, 4 calls per pair.  The pairs
    are spread evenly over the canonical edge list.

    A config with a non-empty lifecycle turns on the recovery driver:
    10 ms attempts, 2 ms..50 ms exponential backoff with 1 ms of jitter
    drawn from a private per-pair stream (so the retry timeline is
    wiring-invariant), 6 retries before a call is abandoned, and at most
    2 outstanding attempts per host (further setups are deferred and
    re-offered after 2 ms, never dropped mid-flight).  Otherwise storms
    run the legacy fire-and-supervise driver. *)

val compare_storm :
  ?domains:int ->
  ?calls_per_pair:int ->
  config ->
  storm list

type storm_sharded = {
  ss_storm : storm;  (** Merged result — equal to {!run_storm}'s. *)
  ss_shards : int;
  ss_components : int;  (** Host-disjoint pair components found. *)
  ss_cpu_per_shard : float array;
      (** Modeled CPU seconds per shard; the aggregate CPU-limited rate
          is [completed / max] over this array. *)
}

val run_storm_sharded :
  wiring:wiring ->
  shards:int ->
  ?pairs:int ->
  ?calls_per_pair:int ->
  config ->
  storm_sharded
(** The same storm partitioned across [shards] domains.  Pairs are
    grouped into host-disjoint components (pairs sharing a host co-batch
    service quanta and must stay together); each component's pairs, links
    and impairment streams are private to its shard, so the merged
    result — counts, causes, conservation, wire time — is {e equal} to
    {!run_storm} on the same config, for any shard count.
    [shards = 1] runs on the calling domain alone. *)

val goal_pairs_per_sec : float
(** The paper's Section 1 target: 10 000 setup/teardown pairs/s. *)

val storm_wire_rate : storm -> float
(** Completed pairs per wire-clock second. *)

val storm_cpu_us_per_pair : storm -> float
(** Modeled CPU microseconds per completed pair — the paper's ~100 us
    budget is this number. *)

val storm_cpu_rate : storm -> float
(** CPU-limited pairs/s: what one modeled CPU sustains at
    {!storm_cpu_us_per_pair} — the number to hold against
    {!goal_pairs_per_sec}. *)

(** {1 Recovery metrics} *)

val storm_goodput : storm -> float
(** Completed pairs per wire-clock second — {!storm_wire_rate} under its
    recovery name: work the callers actually got, crashes included. *)

val storm_retry_amplification : storm -> float
(** [1 + retried / requested]: mean setup attempts per offered call.
    [1.0] on a pristine run. *)

val storm_ttr_sorted : storm -> float list
(** All time-to-recover samples, merged across pairs and sorted. *)

val ttr_percentile : float list -> float -> float
(** [ttr_percentile sorted q] with [q] in [[0, 1]]; [0.] when empty. *)

val storm_complete : storm -> bool
(** Eventual completion under the recovery driver: every requested call
    was either completed or explicitly abandoned — nothing hangs
    ([completed + abandoned = requested]).  Holds for pristine legacy
    runs too; a legacy run with supervision failures reports them in
    [calls_failed] instead and does not satisfy this identity. *)

(** {1 Rendering} *)

val render :
  config ->
  pristine:spread list ->
  chaos:spread list ->
  storms:storm list ->
  string
(** The golden-snapshotted mesh figure: topology summary, per-wiring
    arrival-latency CDF table and ASCII CDF chart for the pristine run,
    the same table under {!chaos_plan} fault injection with the
    delivered-or-dropped cause ledger, and the call-storm table against
    the 10 000 pairs/s goal.  Deterministic — keep it so. *)

val render_recovery : config -> storms:storm list -> string
(** The golden-snapshotted recovery figure: lifecycle and link-plan
    description, a per-wiring recovery table, and the delivered-or-abandoned
    cause ledger per wiring.  Deterministic — keep it so. *)
