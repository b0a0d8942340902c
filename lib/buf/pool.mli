(** Free-list allocator for mbuf backing storage.

    Keeps separate free lists for small (128 B) and cluster (2048 B) data
    areas so steady-state packet processing allocates nothing from the GC's
    point of view — mirroring the kernel mbuf allocator the paper's stack
    relies on.  Also tracks allocation statistics, which the tests use to
    verify that layer processing hands buffers off instead of copying.

    Each free list is a LIFO stack over an array and every counter is a
    mutable field, so once the free lists are warm an
    {!alloc_small}/{!release_small} pair allocates no minor words at all;
    {!stats} builds its record only when asked. *)

type t

type stats = {
  small_allocs : int;
  cluster_allocs : int;
  small_frees : int;
  cluster_frees : int;
  small_in_use : int;
  cluster_in_use : int;
  peak_small : int;
  peak_cluster : int;
}

val create : unit -> t
(** Each free list holds at most 4096 buffers. *)

val alloc_small : t -> bytes

val alloc_cluster : t -> bytes

val release_small : t -> bytes -> unit

val release_cluster : t -> bytes -> unit

val stats : t -> stats
(** A snapshot of the counters. *)
