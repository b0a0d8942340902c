(** Cord/Mosberger-style dense code re-layout (Section 5.4).

    The paper observes that ~25% of the instruction bytes fetched into the
    cache are never executed, and that compacting the working set —
    "moving rarely executed basic blocks to the end of functions" — would
    cut the cache lines needed by about that fraction.  [dense] performs
    the idealised version of that transformation on a reference trace:
    every touched code byte range is remapped to a contiguous packed
    address space (in first-touch order), exactly as if the compiler had
    laid out only the executed basic blocks back to back.  Data references
    are left alone.

    [miss_comparison] then replays both traces against a cold cache to
    measure what the re-layout buys per packet. *)

val dense : Tracebuf.t -> Tracebuf.t
(** Remapped copy of the trace (code addresses packed; loads/stores
    unchanged). *)

type comparison = {
  sparse_lines : int;  (** Code working-set lines before. *)
  dense_lines : int;  (** After packing. *)
  sparse_imisses : int;  (** Cold-cache replay misses before. *)
  dense_imisses : int;
  line_saving : float;  (** 1 - dense/sparse lines (paper: ~0.25). *)
}

val miss_comparison : Tracebuf.t -> comparison
(** Against the paper's 8 KB direct-mapped cache with 32-byte lines. *)
