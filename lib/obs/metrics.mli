(** Per-layer metric sheets: the observability subsystem's central type.

    A sheet holds monotonic counters for one instrumented component — one
    {!layer} record per protocol layer plus component-wide histograms
    (entry batch sizes, entry-queue depth, message latency) and named
    scalar counters.  The scheduling engine ({!Ldlp_core.Engine}, in every
    topology it builds) and the cycle model ({!Ldlp_model.Simrun}) accept
    an optional sheet at construction and record into it exactly when one
    is attached: the sheet is the only switch.

    Recording allocates nothing (pinned by the Gc-delta tests), and every
    field is a sum, max or fixed-geometry {!Histogram}, so same-shaped
    sheets merge deterministically: {!merge_into} is how per-domain
    sheets from {!Ldlp_par.Pool} workers combine into one result,
    independent of domain count. *)

type layer = {
  l_name : string;
  mutable handled : int;  (** Handler invocations. *)
  mutable quanta : int;
      (** Times this layer started running after a different layer ran —
          the number of code working-set switches into this layer, the
          quantity LDLP batching drives down. *)
  mutable exec_cycles : int;  (** Simulated execution cycles. *)
  mutable stall_cycles : int;  (** Simulated miss-stall cycles. *)
  mutable imisses : int;  (** Simulated I-cache misses. *)
  mutable dmisses : int;  (** Simulated D-cache read misses. *)
  mutable wmisses : int;  (** Simulated write misses. *)
  mutable queue_peak : int;  (** Peak queue depth feeding this layer. *)
  mutable minor_words : int;
      (** Real minor-heap words allocated while this layer's handler ran
          (host-dependent; excluded from deterministic renderings). *)
}

type t

val create : label:string -> layer_names:string list -> t

val label : t -> string

val nlayers : t -> int

val layer : t -> int -> layer

val messages : t -> int

val batches : t -> int

val batch_hist : t -> Histogram.t

val depth_hist : t -> Histogram.t

val latency_hist : t -> Histogram.t
(** Message latencies in nanoseconds. *)

(** {1 Setup-time registration} *)

val scalar : t -> string -> int ref
(** Find-or-create a named scalar counter.  Call at construction time and
    keep the ref; bumping it is the hot-path operation. *)

val scalars : t -> (string * int) list
(** Registered scalars in registration order. *)

(** {1 Hot-path recorders} *)

val arrival : t -> depth:int -> unit
(** One message entered the component; [depth] is the entry-queue
    occupancy after the arrival. *)

val batch_run : t -> int -> unit
(** One entry-point scheduling quantum covering [n] messages. *)

val handled : t -> int -> unit
(** Layer [i] ran its handler once (also maintains [quanta]). *)

val queue_depth : t -> int -> int -> unit
(** [queue_depth t i n]: layer [i]'s feed queue reached depth [n]. *)

val charge :
  t -> int -> exec:int -> stall:int -> imisses:int -> dmisses:int ->
  wmisses:int -> unit
(** Attribute simulated memory-system deltas to layer [i]. *)

val alloc : t -> int -> int -> unit
(** [alloc t i words]: layer [i]'s handler allocated [words] minor words. *)

val latency_ns : t -> int -> unit
(** Record an end-to-end latency sample, in nanoseconds.  An int, not a
    float: a float passed to a function the compiler does not inline is
    boxed. *)

(** {1 Aggregation} *)

type totals = {
  t_handled : int;
  t_exec_cycles : int;
  t_stall_cycles : int;
  t_imisses : int;
  t_dmisses : int;
  t_wmisses : int;
  t_minor_words : int;
}

val totals : t -> totals

val merge_into : dst:t -> t -> unit
(** Sum [src] into [dst].  The layer shapes (names, order) must match;
    equivalent to having recorded both streams into one sheet. *)

val render : t -> string
(** Deterministic text rendering (for a deterministic run): per-layer
    table, per-message rates, histogram summaries, scalars.  The
    host-dependent per-layer allocation words are left out. *)
