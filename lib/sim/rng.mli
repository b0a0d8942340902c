(** Deterministic pseudo-random number generator (xoshiro256++ seeded via
    splitmix64).

    The simulator never uses the OCaml stdlib generator so that every
    experiment is reproducible from a single integer seed, independent of
    compiler version or library initialisation order. *)

type t

val create : seed:int -> t

val split : t -> t
(** Derive an independent stream (for per-run layouts, per-source arrival
    processes, ...) without perturbing the parent stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean (inter-arrival times of a
    Poisson process). *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto distributed: minimum value [scale], tail exponent [shape].
    Heavy-tailed for [shape <= 2]; the ON/OFF traffic model uses
    [shape ~ 1.2]. *)

val geometric : t -> p:float -> int
(** Number of Bernoulli(p) trials up to and including the first success
    (support 1, 2, ...). *)

val shuffle : t -> int array -> unit
(** In-place Fisher-Yates shuffle.  Over ints, so a swap stores two
    immediates and makes no [caml_modify]. *)
