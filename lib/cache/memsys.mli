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

val fetch_code : t -> addr:int -> len:int -> unit
(** Reference a code byte range through the I-cache, charging stalls. *)

val read_data : t -> addr:int -> len:int -> unit

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

val icache_misses : t -> int

val dcache_misses : t -> int

val write_misses : t -> int

val exec_cycles : t -> int

val stall_cycles : t -> int
(** One count of the ledger, read without building a {!counters} record:
    a read before a charge and one after give its delta. *)

val counters : t -> counters
(** A snapshot of the counters accumulated since the last [take_counters]
    or creation. *)

val take_counters : t -> counters
(** Return a snapshot of the counters, then zero them (cache contents are
    preserved). *)

val cold : t -> unit
(** Flush both caches. *)
