(** Randomised multi-group stack workload over the sharded driver — the
    subject of the cross-shard differential oracle.

    Each {e group} owns a full private pipeline: a {!Ldlp_core.Msg.pool}
    and an LDLP {!Ldlp_core.Engine.rx_chain} over a randomly drawn stack
    of layer behaviours.  Groups seed themselves with an initial burst; every
    delivered message whose TTL is positive is re-emitted through the
    {!Handoff} to the next group, so traffic keeps crossing shard
    boundaries until the TTLs drain.

    Everything observable — per-group delivered-stream digests, the
    emitted wire multiset, the conservation ledger, pool leak counts —
    is a pure function of [spec] alone: {!run} at any shard count and
    policy must produce identical {!report}s (modulo [r_stats]); the
    oracle in [lib/check] and the QCheck suite both pin exactly that. *)

type behaviour = Pass | Consume_every of int | Reply_every of int

type spec = {
  sp_groups : int;
  sp_layers : behaviour list array;  (** Per-group stack, bottom first. *)
  sp_policy : Ldlp_core.Batch.policy;
  sp_init : (int * int) list array;
      (** Per-group initial burst, [(tag, ttl)] in injection order. *)
  sp_seed : int;  (** The seed that drew this spec (for reporting). *)
  sp_crash : (int * int * int) list;
      (** Crash windows [(group, down_round, up_round)]: the group is
          dead for rounds [down <= r < up].  While dead it processes
          nothing and every handoff delivery addressed to it is dropped
          and ledgered in [gr_crashed]; siblings on the same shard are
          untouched.  Because the BSP loop fully drains every pipeline
          each round, a group carries no volatile state between rounds —
          so deadness keyed by the (placement-invariant) round number is
          exactly a crash that wipes the in-flight work addressed to it,
          and reports stay identical at any shard count.  Windows must
          start at round >= 1 (seeding runs in round 0) and be disjoint
          per group. *)
}

val validate_crash : spec -> unit
(** @raise Invalid_argument on out-of-range groups, windows starting
    before round 1, empty or overlapping windows.  Run by {!run}. *)

val dead_at : spec -> group:int -> round:int -> bool

val random_spec : ?groups:int -> ?crash:bool -> seed:int -> unit -> spec
(** Deterministic in [seed].  [groups] defaults to a seed-drawn value in
    2–6.  [crash] (default [false]) additionally draws crash windows for
    roughly a third of the groups; the crash draw happens after every
    legacy field, so [(seed, groups)] produce byte-identical crash-free
    specs whether or not the flag exists. *)

val pp_spec : Format.formatter -> spec -> unit

type group_report = {
  gr_group : int;
  gr_digest : string list;
      (** Delivered stream, in delivery order — the byte-replayable
          output of the group's pipeline. *)
  gr_emits : (int * int * int) list;
      (** Handoff emissions [(dst_group, tag, ttl)] in emission order
          (per-group order is placement-invariant). *)
  gr_injected : int;
  gr_delivered : int;
  gr_consumed : int;
  gr_sent_down : int;
  gr_pool_outstanding : int;  (** Must be 0 — per-shard leak audit. *)
  gr_handoff_in : int;  (** Handoff deliveries accepted while alive. *)
  gr_crashed : int;  (** Handoff deliveries dropped by a crash window. *)
}

type report = {
  r_groups : group_report array;  (** Group-indexed, all groups. *)
  r_stats : Shard.run_stats;
}

val run : ?policy:Shard.Policy.t -> shards:int -> spec -> report
(** Execute the workload on [shards] domains ([1] = the calling domain
    alone).  The policy only moves groups between shards — the report
    must not change with it. *)

val wire_multiset : report -> (int * int * int * int) list
(** Sorted multiset of [(src_group, dst_group, tag, ttl)] over every
    handoff emission. *)

val ledger_ok : report -> bool
(** Conservation per group: injected = delivered + consumed, emissions
    equal deliveries with positive TTL, no pooled message leaked, and
    every emission addressed to a group was accepted by it or ledgered
    against its crash window ([addressed = handoff_in + crashed]). *)

val crashed_total : report -> int
(** Handoff deliveries lost to crash windows, summed over groups. *)

val totals : report -> int * int * int
(** [(injected, delivered, consumed)] summed over groups. *)

val equal_reports : report -> report -> bool
(** Placement-invariant equality: digests, emits and ledgers per group
    (ignores [r_stats], which legitimately varies with shard count). *)

val diff_reports : report -> report -> string option
(** [None] when {!equal_reports}; otherwise a human-readable first
    difference, for oracle output. *)
