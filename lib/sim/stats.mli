(** Online summary statistics (Welford's algorithm): numerically stable
    mean/variance plus min/max, without storing samples. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0. when empty. *)

val variance : t -> float
(** Sample variance (n-1 denominator); 0. for fewer than two samples. *)

val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val merge : t -> t -> t
(** Combine two summaries as if all samples were added to one. *)

val copy_into : dst:t -> t -> unit
(** Overwrite [dst]'s state with another summary's. *)
