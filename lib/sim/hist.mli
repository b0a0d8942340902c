(** Logarithmically bucketed histogram for latency-like quantities that span
    many orders of magnitude (the paper's latency axes run from 100 us to
    1 s).  Percentiles are approximate to within one bucket
    (default 20 buckets per decade, i.e. ~12% relative error bound).

    It prints the modeled latency percentiles in the [fig6] and [mesh]
    goldens and in [BENCH_mesh]/[BENCH_hotpath].  {!Ldlp_obs.Histogram}
    (integer, power-of-two) stays beside it: its buckets give different
    quantiles for the same samples, so neither can replace the other
    without moving those outputs. *)

type t

val create : ?lo:float -> ?hi:float -> ?buckets_per_decade:int -> unit -> t
(** Defaults: [lo = 1e-7], [hi = 1e3] (values are clamped into range). *)

val add : t -> float -> unit

val count : t -> int

val mean : t -> float

val min : t -> float

val max : t -> float

val percentile : t -> float -> float
(** [percentile t 0.99] is the approximate 99th percentile; 0. when empty. *)

val median : t -> float

val merge_into : dst:t -> t -> unit
(** Accumulate another histogram's samples.  Both must share the same
    geometry (created with the same bounds); raises [Invalid_argument]
    otherwise. *)

val clear : t -> unit

val buckets : t -> (float * int) list
(** [(bucket_upper_bound, count)] for non-empty buckets, ascending. *)
