(** Scoped spans: wall-clock time and minor-heap allocation attributed to
    a named scope.

    [time span f] runs [f] and, when the {!Obs} gate is on, adds one call,
    the elapsed wall-clock nanoseconds and the minor words [f] allocated
    to the span (exceptions still record, via [Fun.protect]).  When the
    gate is off it is exactly [f ()] — no clock read, no Gc sampling, no
    allocation.

    Span contents are host-dependent (real time, real allocator), so they
    are deliberately excluded from the deterministic renderings that the
    golden snapshots diff; {!Metrics.render} only includes them when asked
    for the host section. *)

type t

val create : string -> t

val name : t -> string

val calls : t -> int

val total_ns : t -> int
(** Accumulated wall-clock nanoseconds. *)

val minor_words : t -> int
(** Accumulated minor-heap words allocated inside the span. *)

val time : t -> (unit -> 'a) -> 'a

val merge_into : dst:t -> t -> unit
(** Sum [src] into [dst]; the names must match. *)

val summary : t -> string
