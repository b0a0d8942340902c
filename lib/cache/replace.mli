(** Set-associative LRU replacement state, shared by {!Cache} and
    [Ldlp_flowtable.Flowtable].

    A replacement array is [sets * ways] integer tags (-1 = invalid), each
    set kept in LRU order: way 0 is most recently used, eviction takes the
    last way.  [sets = 1] gives a full LRU stack over [ways] entries;
    [ways = 1] gives a direct-mapped table with a single compare-and-store
    on the hot path.

    Keys are arbitrary non-negative integers (cache line numbers for
    {!Cache}, flow-slot hashes for the flowtable); the set index is
    [key land (sets - 1)], so [sets] must be a power of two. *)

type t

val create : sets:int -> ways:int -> t
(** Raises [Invalid_argument] unless [sets] is a power of two and
    [ways >= 1]. *)

val sets : t -> int

val ways : t -> int

val access : t -> int -> bool
(** [access t key] simulates one reference to [key]: [true] on a hit
    (promoting [key] to MRU in its set), [false] on a miss (installing
    [key] at MRU, shifting the rest down and dropping the LRU victim). *)

val access_range : t -> first:int -> last:int -> int
(** [access_range t ~first ~last] references the consecutive keys
    [first], [first + 1], ..., [last] in that order and returns how many
    missed ([0] when [last < first]).  Tags, {!occupancy} and {!evictions}
    end exactly as after calling {!access} on each key in turn; a run
    longer than [sets] wraps the set index and its later keys may evict
    its earlier ones, as they would one by one.  Direct-mapped tables run
    the whole range in one loop over the tag array; associative ones call
    {!access} per key.  This is how {!Cache} references a code or data
    region. *)

val probe : t -> int -> bool
(** Whether [key] is currently resident (no state change). *)

val flush : t -> unit
(** Invalidate every entry and reset {!occupancy} (eviction count is
    preserved — flushing is not evicting). *)

val occupancy : t -> int
(** Number of valid entries currently held.  Maintained incrementally;
    equal to folding over the tag array. *)

val evictions : t -> int
(** Number of miss installs that displaced a valid entry (misses while the
    victim way was already filled).  Lets the flowtable report modeled
    evictions without a second tag sweep; {!Cache} ignores it. *)

val iter : t -> (int -> unit) -> unit
(** [iter t f] calls [f key] for every resident key, in set order, most
    recently used first within a set (no state change).  This is the
    ordering contract [Ldlp_check.Cache_oracle] compares against a naive
    reference. *)
