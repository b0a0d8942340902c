(** Sharded data path: N engine pipelines in lockstep rounds over
    a deterministic inter-shard {!Handoff}, one member of an
    {!Ldlp_par.Pool.Gang} per shard.

    {2 Model}

    Work is partitioned by {e group} — the placement-independent flow
    identity (a connection, a call pair, a host).  A {!Policy} maps each
    group to a shard; each shard runs on its own gang member's domain
    over strictly domain-local mutable state (its own [Msg.pool]s, queues
    and metric sheets).  Execution is bulk-synchronous: in every round
    each shard first {e drains} the handoff items addressed to its groups
    and, after a barrier, {e delivers} them (in the canonical
    [(src_group, seq)] order), then {e steps} its local engines to
    quiescence, emitting any cross-group traffic into the handoff; a
    barrier separates rounds.

    {2 Why a run is a pure function of [(config, seed, shards)]}

    {e All} cross-group traffic goes through the handoff — same-shard
    traffic included.  An item emitted in round [r] is therefore
    delivered at the start of round [r + 1] {e wherever} its destination
    group lives, so moving groups between shards changes placement but
    not the round-by-round schedule any single group observes.  By
    induction over rounds, every group's delivery sequence — and with it
    each shard-local engine's entire evolution — is invariant to the
    shard count and the placement policy.  [shards = 1] consequently
    reproduces the multi-shard output byte for byte, which is what the
    differential oracle in [lib/check] replays. *)

module Policy : sig
  type t =
    | Affinity
        (** Contiguous group blocks per shard — neighbouring groups stay
            together, so a shard keeps one stack's layer code hot across
            its whole batch (the LDLP i-cache argument applied to
            placement). *)
    | Hash  (** Multiplicative hash spread, for anti-affinity tests. *)

  val name : t -> string

  val shard_of : t -> shards:int -> groups:int -> int -> int
  (** Shard of a group id in [0, groups). *)

  val plan : t -> shards:int -> groups:int -> int array
  (** [plan p ~shards ~groups] is the full assignment, group-indexed. *)
end

(** One shard's callbacks, constructed by [make] {e on the shard's own
    domain}, which runs every later callback of that shard too so every piece of mutable state it closes over is
    domain-local.  [emit ~src_group ~dst_group v] (handed to [make])
    may be called from [w_deliver] and [w_step]; [src_group] must be one
    of the shard's own groups. *)
type ('a, 'r) worker = {
  w_deliver : src_group:int -> dst_group:int -> 'a -> unit;
      (** One handoff item for local group [dst_group], in canonical
          order. *)
  w_step : round:int -> bool;
      (** Run local work to quiescence; [true] if this shard wants more
          rounds regardless of traffic (e.g. timers still pending). *)
  w_finish : unit -> 'r;
      (** Called once, after the final barrier, still on the shard's
          domain. *)
}

type run_stats = {
  rs_shards : int;
  rs_groups : int;
  rs_policy : Policy.t;
  rs_rounds : int;  (** Rounds executed before quiescence. *)
  rs_transferred : int;  (** Handoff items delivered. *)
}

val run :
  ?policy:Policy.t ->
  shards:int ->
  groups:int ->
  make:
    (shard:int ->
    groups:int list ->
    emit:(src_group:int -> dst_group:int -> 'a -> unit) ->
    ('a, 'r) worker) ->
  unit ->
  'r array * run_stats
(** Drive to quiescence: stop at the first barrier where no shard wants
    more rounds and the handoff is empty.  Results are shard-indexed.
    Every shard count takes the same round loop on a gang of [shards]
    members; [shards = 1] spawns no domain.  Default policy [Affinity].
    Raises [Failure] after 100_000 rounds without quiescence.  If [make]
    or a worker callback raises, every shard still finishes that phase,
    the helper domains are joined, and the lowest shard's exception is
    re-raised. *)
