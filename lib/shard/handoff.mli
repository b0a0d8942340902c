(** Replayable inter-shard handoff: one outbox list per ordered shard
    pair.

    A shard's step phase appends to its outboxes; the destination
    collects them in the next drain phase, after {!Shard.run}'s barrier.
    Nothing is ever refused or dropped, and the barrier is the only
    synchronisation: an outbox is written by one domain and read by
    another only on opposite sides of it.

    {2 Determinism}

    Every item is tagged with its source {e group} (the placement-
    independent flow identity) and a per-group sequence number, and
    {!receive} stable-sorts each round's deliveries by
    [(src_group, seq)].  Because that key is unique and
    placement-independent, the delivered order is a pure function of
    {e what was sent}, not of the shard count or of which shard sent
    it — which is exactly the property the cross-shard differential
    oracle pins.

    {2 Domain discipline}

    [send] may be called only by the owning domain of [src_shard];
    [receive] only by the owning domain of [dst_shard], and only after a
    barrier that follows the sends it collects.  [pending] and
    [transferred] want a barrier too. *)

type 'a item = {
  it_src_group : int;
  it_seq : int;  (** Per-source-group sequence number, unique per group. *)
  it_dst_group : int;
  it_value : 'a;
}

type 'a t

val create : shards:int -> 'a t
(** Raises [Invalid_argument] unless [shards >= 1]. *)

val send :
  'a t ->
  src_shard:int ->
  dst_shard:int ->
  src_group:int ->
  seq:int ->
  dst_group:int ->
  'a ->
  unit
(** Append to the [src_shard -> dst_shard] outbox. *)

val receive : 'a t -> dst_shard:int -> 'a item list
(** Everything sent to [dst_shard] before the current barrier, sorted by
    [(src_group, seq)].  Empties the outboxes it reads. *)

val pending : 'a t -> bool
(** Some outbox holds an item no [receive] has collected yet. *)

val transferred : 'a t -> int
(** Items collected by [receive] so far, over all shards. *)
