(** Differential oracle for the sharded data path.

    The sharding contract ({!Ldlp_shard.Shard}) is that a run is a pure
    function of [(config, seed, workload)] and {e not} of its placement:
    shard count and placement policy may change scheduling interleavings
    between domains, but never anything observable.  This module makes
    that contract executable the same way {!Sched_oracle} does for
    scheduling disciplines: run a workload at [shards = 1] (the
    single-domain reference) and replay it across shard counts and
    policies, then compare

    - per-group delivered-byte streams (digest lists, in delivery order);
    - the handoff wire multiset [(src, dst, tag, ttl)];
    - conservation ledgers per group
      ([injected = delivered + consumed], emissions match positive-TTL
      deliveries) and the per-shard pool leak audit (outstanding = 0).

    Workloads are {!Ldlp_shard.Stackwork} specs — randomly drawn stacks
    of layer behaviours whose groups keep re-emitting traffic across
    shard boundaries until TTLs drain — plus, in {!run_random}, a
    fixed-seed {!Ldlp_shard.Shard_echo} TCP echo exchange replayed at
    several shard counts. *)

type placement = { pl_shards : int; pl_policy : Ldlp_shard.Shard.Policy.t }

val pp_placement : Format.formatter -> placement -> unit

val placements : rng:Ldlp_sim.Rng.t -> placement list
(** 3-5 random placements: shards in 2-5, both policies. *)

val differential :
  Ldlp_shard.Stackwork.spec -> placement list -> (unit, string) result
(** Run the spec on one shard, then under every placement, and
    compare reports; [Error] carries the offending placement and the
    first difference.  Also asserts the single-shard reference itself passes
    the conservation ledger. *)

val run_random : seed:int -> cases:int -> (int, string) result
(** Check [cases] random stackwork specs, each against random
    placements, then replay the fixed echo exchange at shards 2-4.
    [Ok cases] or the first failure, prefixed with the offending spec.
    Used by [ldlp_repro check]. *)
