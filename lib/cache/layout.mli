(** Placement of code and data regions in a flat simulated address space.

    The paper averages every synthetic result over 100 runs "each with a
    different random placement in memory" because direct-mapped conflict
    misses depend on layout.  A {!t} hands out line-aligned regions; the
    random allocator places each region at an independent uniformly random
    line-aligned address, while the sequential allocator packs regions
    back-to-back (an idealised Cord-style dense layout). *)

type t

type region = { base : int; len : int }
(** A placed region: byte address [base], [len] bytes. *)

val random : rng:Ldlp_sim.Rng.t -> line_bytes:int -> unit -> t
(** Uniform placement within a 256 MB address space.  A region never
    straddles the end of the space. *)

val sequential : line_bytes:int -> ?gap_bytes:int -> unit -> t
(** Pack regions one after another, [gap_bytes] of padding between them. *)

val alloc : t -> int -> region
(** Allocate a region of the given byte length (rounded up to a line). *)

val contains : region -> int -> bool
