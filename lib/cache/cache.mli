(** A single cache (instruction or data) simulated at line granularity.

    Supports direct-mapped and N-way set-associative organisations with LRU
    replacement.  Addresses are plain [int] byte addresses in an arbitrary
    flat address space; only [addr / line_bytes] matters. *)

type t

val create : Config.t -> t

val config : t -> Config.t

val access : t -> int -> bool
(** [access c addr] simulates one reference to the line containing byte
    [addr]; returns [true] on a hit, installing the line on a miss. *)

val access_line : t -> int -> bool
(** Like {!access} but the argument is already a line number. *)

val touch_range : t -> addr:int -> len:int -> int
(** Reference every line in a byte range, lowest first; returns the number
    of misses ([0] when [len <= 0]).  The misses, the {!hits} and
    {!misses} counters and the tag state equal those of calling
    {!access_line} on each line of the range in turn, including ranges
    longer than the cache, whose later lines may evict their earlier ones.
    This is the hot path of the protocol-stack simulator: every code,
    data and message region [Memsys] references is one call, run through
    [Replace.access_range], which costs a direct-mapped cache one or two
    splices of its runs of sets, not one step per line. *)

val resident : t -> int -> bool
(** Whether the line containing byte [addr] is currently cached (no state
    change). *)

val flush : t -> unit
(** Invalidate all lines (cold cache). *)

val occupancy : t -> int
(** Number of valid lines currently held. *)

val iter_resident : t -> (int -> unit) -> unit
(** [iter_resident c f] calls [f line] for every line currently cached, in
    set order, most recently used first within a set (no state change).
    Lets an external checker compare the full tag state against a
    reference implementation — see [Ldlp_check.Cache_oracle]. *)

val hits : t -> int

val misses : t -> int

val reset_counters : t -> unit
