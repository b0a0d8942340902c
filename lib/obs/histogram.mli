(** Bounded, mergeable power-of-two histogram over non-negative integers.

    Bucket 0 holds exactly the value 0; bucket [b >= 1] holds
    [[2^(b-1), 2^b - 1]] (the last bucket is open-ended).  The geometry is
    fixed, so any two histograms merge by element-wise addition — the
    property that lets per-domain metric sheets from {!Ldlp_par.Pool}
    workers be combined into one deterministic result regardless of
    domain count.

    Exact count/sum/min/max ride alongside the buckets: [mean] is exact;
    [quantile] is bucket-resolution (it returns the upper bound of the
    bucket holding the rank-th smallest value, clamped to the true
    maximum, so it never under-reports and never exceeds the observed
    range).  The QCheck suite in [test/test_obs.ml] pins these contracts
    against a naive sorted-array reference.

    It prints the [stats] golden's [p50<=]/[p99<=].  {!Ldlp_sim.Hist}
    (float, log-scale) stays beside it: its buckets give different
    quantiles for the same samples, so neither can replace the other
    without moving those outputs. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** Record a value.  Raises [Invalid_argument] on negative input. *)

val bucket_of : int -> int
(** Bucket index a value lands in (exposed for the property tests). *)

val bucket_lo : int -> int

val bucket_hi : int -> int

val count : t -> int

val sum : t -> int

val mean : t -> float
(** Exact mean of the recorded values ([0.] when empty). *)

val min_value : t -> int
(** Smallest recorded value ([0] when empty). *)

val max_value : t -> int

val quantile : t -> float -> int
(** [quantile t p] with [p] in [[0, 1]]: the upper bound of the bucket
    containing the [ceil (p * count)]-th smallest recorded value, clamped
    to [max_value].  [0] when empty. *)

val median : t -> int

val merge_into : dst:t -> t -> unit
(** Add [src]'s state into [dst].  Equivalent to having recorded both
    streams into one histogram. *)

val merge : t -> t -> t
(** Fresh histogram equal to recording both inputs' streams. *)

val equal : t -> t -> bool

val clear : t -> unit

val buckets : t -> (int * int * int) list
(** Non-empty buckets as [(lo, hi, count)], ascending. *)

val summary : t -> string
(** One-line deterministic rendering: count, mean, p50, p99, max. *)
