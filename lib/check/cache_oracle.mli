(** Differential oracle for {!Ldlp_cache.Cache}.

    A deliberately naive reference cache: each set is an OCaml list of line
    numbers kept most-recently-used first, and every operation is a linear
    scan.  It is slow and obviously correct — LRU by construction — which
    is exactly what the production cache's packed-array rotation tricks are
    checked against.  {!differential} replays an operation stream through
    both implementations and reports the first step at which the observable
    behaviour (hit/miss outcome, counters, occupancy, or full tag state)
    diverges. *)

type t

(** {1 The reference implementation}

    Mirrors the {!Ldlp_cache.Cache} signature subset the simulators use. *)

val create : Ldlp_cache.Config.t -> t

val access_line : t -> int -> bool

val touch_range : t -> addr:int -> len:int -> int
(** Reference every line in a byte range; returns the miss count. *)

val resident : t -> int -> bool

val flush : t -> unit

val occupancy : t -> int

val hits : t -> int

val misses : t -> int

val lines_agree : t -> ((int -> unit) -> unit) -> (unit, string) result
(** [lines_agree t iter] is [Ok ()] when [iter f] calls [f] on exactly the
    lines [t] holds, in set order and most recently used first within a
    set (the order {!Ldlp_cache.Cache.iter_resident} lists them), and
    [Error detail] otherwise. *)

(** {1 Differential driver} *)

type op =
  | Access of int  (** Byte address. *)
  | Access_line of int
  | Touch_range of { addr : int; len : int }
  | Probe of int  (** [resident] on a byte address (no state change). *)
  | Flush

val random_ops :
  rng:Ldlp_sim.Rng.t -> ?hot_lines:int -> int -> op list
(** A stream of [n] operations: mostly line accesses inside a hot working
    set of [hot_lines] lines (default 3x the cache) so hits, misses,
    evictions and set conflicts all occur; occasional far-away accesses
    within 2{^20} lines, byte-granularity accesses, range touches,
    residency probes, and rare flushes.  Most range touches are under
    256 bytes; 1 op in 100 is a 6,144-byte range (one paper layer's code)
    and 1 in 100 a range of up to [hot_lines * 32] bytes, so a single
    touch can be longer than the cache and wrap the set index. *)

type divergence = { step : int; op : op; detail : string }

val pp_divergence : Format.formatter -> divergence -> unit

val differential : Ldlp_cache.Config.t -> op list -> (int, divergence) result
(** Replay the stream through a fresh [Ldlp_cache.Cache.t] and a fresh
    oracle.  After every operation the hit/miss outcome and the hit/miss
    counters must agree.  After every [Touch_range] and [Flush], every
    16th step and at the end of the stream, the occupancy must also agree
    and the cache's [iter_resident] must pass {!lines_agree}.  [Ok n] is
    the number of operations replayed. *)
