(** Cache geometry and cost parameters.

    Defaults follow the paper's synthetic machine (Section 4): 8 KB
    direct-mapped caches with 32-byte lines and a 20-cycle read-miss
    penalty on a 100 MHz CPU. *)

type t = {
  size_bytes : int;  (** Total capacity; must be a power of two. *)
  line_bytes : int;  (** Line size; must be a power of two. *)
  associativity : int;  (** 1 = direct-mapped. *)
  miss_penalty : int;  (** Stall cycles per read miss. *)
}

val v :
  ?size_bytes:int ->
  ?line_bytes:int ->
  ?associativity:int ->
  ?miss_penalty:int ->
  unit ->
  t
(** Validates the geometry; raises [Invalid_argument] on a non-power-of-two
    size or line, or when [size_bytes] is not divisible by
    [line_bytes * associativity]. *)

val paper_default : t
(** 8 KB, 32 B lines, direct-mapped, 20-cycle miss. *)

val lines : t -> int
(** Number of lines in the cache. *)

val sets : t -> int

val line_of_addr : t -> int -> int
(** Line number (address / line size) of a byte address. *)

val lines_in_range : t -> addr:int -> len:int -> int
(** How many distinct lines a byte range touches. *)
