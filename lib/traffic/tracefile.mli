(** Plain-text packet trace files: one ["<time> <size>"] line per packet,
    seconds and bytes, in the spirit of the published Bellcore trace format.
    Lets experiments freeze a synthetic trace and replay it exactly. *)

val save : string -> Source.packet list -> unit

val load : string -> Source.packet list
(** Raises [Failure] with a line number on malformed input. *)
