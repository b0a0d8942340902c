(** Latency recorder with exact percentiles.

    Samples are integer nanoseconds kept in a preallocated array, so
    recording is one store and never touches the heap while the array has
    room.  Percentiles are nearest-rank over the sorted samples: exact, with
    none of the resolution loss of power-of-two histogram buckets. *)

type t

val create : int -> t
(** A recorder with room for this many samples before it grows. *)

val add : t -> int -> unit

val count : t -> int

val sorted : t -> int array
(** The samples recorded so far, ascending (a copy). *)

val percentile : int array -> permille:int -> int
(** Nearest-rank percentile of an ascending array: the smallest sample
    such that at least [permille]/1000 of all samples are at or below it.
    [permille] is in [1, 1000]; raises [Invalid_argument] on an empty
    array. *)

(** {1 Summaries of repeated measurements} *)

val quantile : float array -> permille:int -> float
(** Nearest-rank percentile of unsorted values; [nan] when empty. *)

val median : float array -> float
(** Median of unsorted values (mean of the middle two for an even count);
    [nan] when empty. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)] by the "exclusive" method of Python's
    [statistics.quantiles(values, n=4)], which is how benchmark spreads are
    judged.  Needs at least two values. *)
