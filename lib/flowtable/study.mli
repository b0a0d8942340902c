(** The flow-table data-locality study (EXPERIMENTS, "Flow-table
    locality"; Jain DEC-TR-592).

    Replays one deterministic {!Ldlp_traffic.Flowmix} arrival stream
    against one exact store, a {!Flat} table holding every flow [k] as
    [k -> k], the table the protocol stacks find their live state in.  In
    front of it sits a modeled cache of flow slots: each (scheme,
    discipline) pass starts a fresh {!Ldlp_cache.Replace} of that scheme's
    geometry and references [Hashtbl.hash k] in it for every lookup.
    [conv] looks flows up one at a time in arrival order; [ldlp] takes
    the stream in [batch]-sized receive batches and looks each batch up
    in (set, slot hash, arrival) order.  The delivered states are
    identical by construction; the modeled D-misses per lookup are the
    figure.

    Defaults put the modeled front cache ([slots = 256] entries) below
    the interleave width ([sources = 512] senders), the regime Jain's
    trace data shows for interrupt-level lookup caches: consecutive
    packets of a flow arrive [sources] positions apart, so arrival-order
    locality is poor even though per-flow trains are long — exactly the
    gap batch-sorting recovers. *)

type scheme =
  | Direct  (** Direct-mapped: [slots] sets of 1 way. *)
  | Set_assoc of int  (** N-way set-associative, LRU within a set. *)
  | Lru_stack  (** One full-LRU stack over all [slots] entries. *)

val scheme_name : scheme -> string
(** ["direct"], ["assoc4"] (etc.), ["lru"]. *)

val all_schemes : scheme list
(** The schemes the study compares: [Direct; Set_assoc 4; Lru_stack]. *)

type row = {
  r_flows : int;
  r_scheme : scheme;
  r_ldlp : bool;  (** false = conventional order, true = batch-sorted. *)
  r_lookups : int;
  r_found : int;
  r_model_hits : int;
  r_model_misses : int;
  r_model_evictions : int;
  r_digest : int;  (** Order-sensitive checksum of delivered states. *)
}

val misses_per_lookup : row -> float

type config = {
  slots : int;  (** Modeled front-cache entries per scheme. *)
  batch : int;  (** LDLP receive-batch size. *)
  lookups : int;  (** Arrivals replayed per (flows, scheme, discipline). *)
  sources : int;
  alpha : float;
  mean_train : float;
}

val quick : config
(** Golden-figure fidelity: 16384 lookups. *)

val bench : config
(** Bench fidelity: 65536 lookups. *)

val run : ?config:config -> flows:int -> seed:int -> unit -> row list
(** All schemes × both disciplines over one [flows]-flow stream, in
    {!all_schemes} order, conventional first.  Within the returned rows
    every (scheme, discipline) pair saw the same arrival stream, so
    digests must agree — [Ldlp_check.Flows_oracle] and the
    [ldlp_repro flows] gate both check that, plus conservation
    ([found = lookups], [model_hits + model_misses = lookups]).  Raises
    [Invalid_argument] unless [slots] is a power of two of at least 4. *)

val render : ?config:config -> rows:row list -> seed:int -> unit -> string
(** The paper-style figure: misses/lookup per scheme and flow count,
    conv vs LDLP, with the win factor. *)
