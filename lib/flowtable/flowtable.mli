(** Unified flow-key → state lookup table.

    The lookup path for TCP PCBs ({!Ldlp_tcpmini.Pcb}), Q.93B call
    records at the UNI endpoints ({!Ldlp_sigproto.Uni}) and DNS zones and
    transactions ({!Ldlp_dnslite}), sized for millions of concurrent
    flows.  The signalling switch ({!Ldlp_sigproto.Switch}) keeps its
    call legs in a private [Hashtbl.Make] table instead.

    Correctness and cost are deliberately split:

    - The {e backing store} is an exact polymorphic hash table.  Every
      [lookup]/[insert]/[remove] is exact regardless of scheme — delivered
      state never depends on the modeled cache, which is what makes the
      cross-scheme equivalence check in [Ldlp_check.Flowtable_oracle] hold
      by construction.
    - The {e front cache model} charges what the lookup {e would} cost in
      D-cache terms: a [scheme]-shaped [Ldlp_cache.Replace] array over
      flow-slot hashes, [slots] entries of [entry_bytes] each.  Model
      misses are charged through {!Ldlp_cache.Memsys.charge_read} when a
      memory system is attached, so probes installed with
      [Memsys.set_probe] observe flow-lookup misses exactly like any
      other data reference.

    {!lookup_batch} is the LDLP move applied to data locality: it sorts a
    receive batch by flow slot before touching the table, so repeated and
    conflicting flows land adjacently and the batch amortises D-misses
    exactly as layer batching amortises I-misses.

    Tables are domain-local: the first guarded access claims the table
    for the calling domain and any access from another domain raises
    [Invalid_argument] — the same tripwire discipline as [Ldlp_core.Msg]
    pools.  A parallel soak builds tcpmini hosts, PCB tables included, on
    helper domains, and the sharded mesh storm builds each shard's [Uni]
    call tables on its own domain. *)

type scheme =
  | Direct  (** Direct-mapped: [slots] sets of 1 way. *)
  | Set_assoc of int  (** N-way set-associative, LRU within a set. *)
  | Lru_stack  (** One full-LRU stack over all [slots] entries. *)

val scheme_name : scheme -> string
(** ["direct"], ["assoc4"] (etc.), ["lru"]. *)

val all_schemes : scheme list
(** The schemes the oracle and the study compare:
    [Direct; Set_assoc 4; Lru_stack]. *)

type stats = {
  lookups : int;
  found : int;  (** Lookups that returned an entry. *)
  missing : int;  (** Lookups that found nothing. *)
  model_hits : int;  (** Modeled front-cache hits (all guarded ops). *)
  model_misses : int;  (** Modeled front-cache misses (all guarded ops). *)
  model_evictions : int;  (** Model misses that displaced a valid entry. *)
  inserts : int;
  removes : int;
}

type ('k, 'v) t

val create :
  ?scheme:scheme ->
  ?slots:int ->
  ?entry_bytes:int ->
  ?buckets:int ->
  ?memsys:Ldlp_cache.Memsys.t ->
  name:string ->
  unit ->
  ('k, 'v) t
(** Defaults: [scheme = Set_assoc 4], [slots = 1024], [entry_bytes = 64],
    [buckets = 64], no memory system.  [slots] must be a power of two and
    divisible by the associativity.  [buckets] is the initial bucket count
    of the exact backing table; callers replacing a bare [Hashtbl] pass
    their previous [Hashtbl.create] size so iteration order is preserved
    (see {!iter}). *)

val name : _ t -> string

val scheme : _ t -> scheme

val slots : _ t -> int

val attach_memsys : _ t -> Ldlp_cache.Memsys.t option -> unit
(** Route model-miss charging into (or detach it from) a memory system. *)

val lookup : ('k, 'v) t -> 'k -> 'v option

val insert : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace. *)

val remove : ('k, 'v) t -> 'k -> unit

val mem : ('k, 'v) t -> 'k -> bool

val lookup_batch : ('k, 'v) t -> 'k array -> 'v option array
(** LDLP batch-sorted lookup: processes the batch ordered by (flow slot,
    slot hash) so duplicate and slot-conflicting keys are adjacent for the
    front-cache model, and returns results in the original order.
    Delivered results are exactly [Array.map (lookup t) keys]; only the
    modeled hit/miss split differs. *)

val length : _ t -> int

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Iterate the backing store.  Order contract: identical to a plain
    [Hashtbl] created with [buckets] and driven with the same op sequence
    — callers that fold for event ordering (mesh signalling deadlines)
    keep their pre-flowtable order byte for byte. *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc

val flush_cache : _ t -> unit
(** Invalidate the front-cache model (cold lookup path).  The backing
    store is untouched. *)

val stats : _ t -> stats

val reset_stats : _ t -> unit

val owner : _ t -> int option
(** Domain that has claimed this table, if any (diagnostics/tests). *)

val metrics_scalars : prefix:string -> Ldlp_obs.Metrics.t -> _ t -> unit
(** Register and set [prefix ^ ".lookups"], [".found"], [".missing"],
    [".model_hits"], [".model_misses"], [".model_evictions"],
    [".inserts"], [".removes"], [".entries"] on a metric sheet. *)
