(** Split instruction/data memory system with cycle accounting.

    Models the paper's synthetic machine: execution cycles accrue directly;
    every read miss (instruction fetch or data load) stalls the CPU for the
    configured miss penalty.  Writes are assumed to drain through a write
    buffer without stalling (they are counted but cost no cycles), matching
    the paper's "read cache miss causes a 20 cycle stall" model. *)

type t

type counters = {
  icache_misses : int;
  dcache_misses : int;
  write_misses : int;
  exec_cycles : int;
  stall_cycles : int;
}

type event =
  | Fetch_code of { addr : int; len : int; misses : int; stall : int }
  | Read_data of { addr : int; len : int; misses : int }
  | Write_data of { addr : int; len : int; misses : int }
  | Execute of { cycles : int }
      (** One memory-system access, as seen by the optional {!set_probe}
          observer.  Events fire on every access — including hits
          ([misses = 0]) — carrying exactly the counter deltas applied, so
          an observer can rebuild {!counters} from the event stream. *)

val create :
  ?icache:Config.t ->
  ?dcache:Config.t ->
  ?unified:bool ->
  ?prefetch_discount:float ->
  ?clock_hz:float ->
  unit ->
  t
(** Defaults: paper caches and a 100 MHz clock.

    With [unified] (default false), instruction fetches and data accesses
    share a single cache built from the [icache] geometry — the paper's
    Figure 4 notes its results "hold equally well for processors with
    unified caches".

    [prefetch_discount] (default 1.0 = none) models sequential
    instruction prefetch from the second-level cache: within one
    [fetch_code] range, misses after the first stall for
    [discount * miss_penalty] cycles, reflecting the paper's remark that
    "some processors can prefetch instructions from the second level
    cache to hide some of the cache miss cost". *)

val clock_hz : t -> float

val set_clock_hz : t -> float -> unit

val icache : t -> Cache.t

val dcache : t -> Cache.t

val fetch_code : t -> addr:int -> len:int -> unit
(** Reference a code byte range through the I-cache, charging stalls. *)

val read_data : t -> addr:int -> len:int -> unit

val charge_read : t -> addr:int -> len:int -> misses:int -> unit
(** Charge [misses] externally-modeled data-read misses (each stalling for
    the D-cache miss penalty) without touching the simulated D-cache tags.
    Fires the same [Read_data] probe event as {!read_data}, so observers
    cannot tell a charged miss from a simulated one.  Used by components
    that model their own reference locality — e.g. the flow table's
    per-scheme lookup model ([Ldlp_flowtable.Flowtable]) — to route their
    D-miss accounting through the shared memory system. *)

val write_data : t -> addr:int -> len:int -> unit

val execute : t -> int -> unit
(** Charge pure execution cycles. *)

val set_probe : t -> (event -> unit) option -> unit
(** Install (or remove) an access observer.  The probe fires after each
    access's counters are applied; it is a diagnostic hook (used by the
    observability differential tests) and costs one [match] per access
    when absent. *)

val cycles : t -> int
(** Total cycles so far (execution + stalls). *)

val seconds : t -> float
(** [cycles /. clock_hz]. *)

val seconds_of_cycles : t -> int -> float

val counters : t -> counters
(** A snapshot of the counters accumulated since the last [take_counters]
    or creation.  The memory system keeps them as mutable ints and charges
    without allocating; only the snapshot builds a record, so a snapshot
    taken before a charge and one taken after give its delta. *)

val take_counters : t -> counters
(** Return a snapshot of the counters, then zero them (cache contents are
    preserved). *)

val cold : t -> unit
(** Flush both caches. *)
