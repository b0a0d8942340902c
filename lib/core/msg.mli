(** Messages flowing through an LDLP stack.

    A message wraps an arbitrary payload (typically an {!Ldlp_buf.Mbuf}
    chain, but the engine is polymorphic) with the bookkeeping the scheduler
    needs: an identity, arrival time, byte size (for data-cache-fit batch
    policies) and a flow label (for per-flow ordering guarantees).

    Fields are mutable so a {!pool} can recycle message records without
    allocating: the steady-state hot path acquires a record, overwrites
    its fields and releases it back, touching the heap not at all. *)

type 'a t = {
  mutable id : int;
  mutable arrival : float;
      (** Seconds, in whatever clock the runtime uses. *)
  mutable flow : int;
      (** Flow/VC identifier; the scheduler preserves per-flow FIFO
          order. *)
  mutable size : int;  (** Payload bytes, used by [Batch.Dcache_fit]. *)
  mutable payload : 'a;
  mutable pool_state : int;
      (** Pool-freelist bookkeeping, internal to {!acquire}/{!release}:
          [-1] heap message ({!make}/{!with_payload}); a message owned by
          the pool with tag [k] is [2k] while live and [2k + 1] while
          free, so a release to the wrong pool is detected.  Never touch
          it directly. *)
}

val make : ?flow:int -> ?arrival:float -> ?size:int -> 'a -> 'a t
(** Fresh heap message with an id unique within the calling domain (ids
    are per-domain counters, so a domain's id sequence is deterministic
    no matter what other domains do).  [size] defaults to 0
    ([Dcache_fit] then counts only per-message overhead); [flow] defaults
    to 0. *)

val with_payload : 'a t -> 'b -> size:int -> 'b t
(** Same identity/arrival/flow, new payload — for layers that transform
    messages (decapsulation, reassembly).  The copy is a heap message
    regardless of where [t] came from; only the original may be
    {!release}d. *)

(** {1 Message pools}

    A freelist of preallocated message records, so the per-message path
    can run allocation-free: {!acquire} pops a record and overwrites its
    fields (a fresh id keeps identity semantics), {!release} pushes it
    back.  Recycling is strictly LIFO over an array — deterministic, no
    hashing, no heap traffic — and the acquire/release counters let a
    harness assert zero leaks at quiescence ({!pool_stats}). *)

type 'a pool

type pool_stats = {
  p_created : int;  (** Records ever owned by the pool. *)
  p_acquired : int;
  p_released : int;
  p_outstanding : int;  (** [acquired - released]; 0 at quiescence. *)
}

val pool : ?capacity:int -> ?dummy:'a -> unit -> 'a pool
(** A message pool.  With [dummy] and a positive [capacity] the freelist
    is prefilled with [capacity] records holding [dummy] (fully
    preallocated operation); otherwise records are created on first
    acquire and recycled thereafter.  When [dummy] is given, {!release}
    also resets the payload to it so recycled slots do not pin dead
    payloads. *)

val acquire : 'a pool -> arrival:float -> size:int -> 'a -> 'a t
(** Pop (or create) a record, overwrite its fields (flow 0), assign a
    fresh unique id (the same id sequence {!make} draws from, so pooled
    and heap messages interleave deterministically).  The caller owns the
    message until {!release}. *)

val release : 'a pool -> 'a t -> unit
(** Return a message to the freelist.  Raises [Invalid_argument] on a
    heap message, a double release, or a message owned by a different
    pool (pools are single-domain structures: each shard of the sharded
    mesh storm and each scenario of a parallel soak owns its own pool,
    and a release into another pool is a bug, not a transfer).  The
    message must not be used afterwards. *)

val pool_stats : 'a pool -> pool_stats
