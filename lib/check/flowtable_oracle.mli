(** Differential oracle for the unified flow table.

    Three executable contracts of {!Ldlp_flowtable.Flowtable}:

    - {e Model fidelity}: the packed per-scheme front-cache model (shared
      [Ldlp_cache.Replace] machinery) is replayed op for op against a
      naive textbook reference — per-set MRU lists over slot hashes, with
      batches replayed in the specified (set, hash, arrival) order — and
      must agree on every modeled hit/miss, the eviction count, and the
      counter conservation laws.
    - {e Exactness}: delivered states always match a plain reference map,
      and batch-sorted lookup returns exactly what one-at-a-time lookup
      returns, whatever the scheme.
    - {e Charging}: with a memory system attached, the probe-observed
      [Read_data] miss stream and the [dcache_misses] counter both equal
      the table's own [model_misses] — a flow-table miss is
      indistinguishable from any other charged data miss.

    Plus the cross-scheme law the study relies on: over a random
    trace-driven workload ({!Ldlp_traffic.Flowmix}), every scheme and
    both disciplines deliver identical state streams. *)

type op =
  | Lookup of int
  | Insert of int * int
  | Remove of int
  | Batch of int array  (** One LDLP receive batch of flow keys. *)
  | Flush  (** Front-cache invalidation; backing must be unaffected. *)

val pp_op : Format.formatter -> op -> unit

val random_ops : rng:Ldlp_sim.Rng.t -> ?key_span:int -> int -> op list
(** Lookup-heavy op mix over a hot/cold key split, with batches of 1-64
    keys and occasional flushes. *)

val differential :
  scheme:Ldlp_flowtable.Flowtable.scheme ->
  slots:int ->
  op list ->
  (int, string) result
(** Replay one op list through a flow table (with memory system attached)
    and the naive references; [Ok digest] of the delivered-state stream
    (order-sensitive, for cross-scheme comparison) or the first
    divergence. *)

val run : seed:int -> cases:int -> (int, string) result
(** [cases] random op lists, each replayed under every scheme at varied
    slot counts with cross-scheme delivered-state digests compared, then
    a Flowmix trace-driven conv-vs-batch equivalence pass per scheme.
    Used by [ldlp_repro check] and [ldlp_repro flows]. *)
