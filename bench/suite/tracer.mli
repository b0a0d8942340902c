(** Spans recorded around the calls the benchmark makes into each layer.

    A span has a name, a start, an end, a parent (the span open when it
    started) and an operation id that the spans of one message share.
    Spans are stored in preallocated arrays (up to a capacity; later spans
    are still aggregated) and written out at exit in Chrome trace-event
    format.  Each name aggregates its self time — the span's duration minus
    the time its children cover — and its self minor-heap words.  Recording
    allocates nothing. *)

type t

val create : names:string array -> capacity:int -> t
(** Span names are fixed up front; a span is named by its index in
    [names].  [capacity] bounds the spans kept for the trace file. *)

val id : t -> string -> int
(** Index of a name; raises [Not_found]. *)

val enter : t -> int -> op:int -> unit

val exit : t -> unit
(** Close the innermost open span. *)

val layer : t -> rx:string -> ?tx:string -> 'a Ldlp_core.Layer.t -> 'a Ldlp_core.Layer.t
(** The layer with its receive handler (and, given [tx], its transmit
    handler) wrapped in spans of those names; the operation id is the
    message id. *)

val record :
  t ->
  int ->
  op:int ->
  tid:int ->
  parent:int ->
  start:int ->
  stop:int ->
  child_ns:int ->
  int
(** Add a span timed elsewhere (on a worker domain, where this recorder
    must not be touched): its name, operation, lane [tid], the slot of its
    parent ([-1] for none), its start and stop in {!Clock.now_ns} time and
    the time its children cover.  Returns its slot ([-1] past capacity). *)

val self_ns : t -> int -> int

val self_words : t -> int -> float

val count : t -> int -> int

val total_self_ns : t -> int
(** Self time summed over every name: the time covered by top-level
    spans. *)

val write_chrome : t -> string -> unit
(** Write the stored spans as a Chrome trace-event JSON file (loadable in
    Perfetto or chrome://tracing); the parent directory must exist. *)
