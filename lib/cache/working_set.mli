(** Working-set accounting: given the set of byte addresses a code path
    touches, how many cache lines (and how many bytes of cache) does it
    occupy at a given line size?  This is the measurement machinery behind
    the paper's Tables 1 and 3. *)

type t

val create : unit -> t

val touch : t -> addr:int -> len:int -> unit
(** Mark a byte range as referenced. *)

val touched_bytes : t -> int
(** Number of distinct bytes referenced. *)

val lines : t -> line_bytes:int -> int
(** Distinct cache lines covering the touched bytes at the given line size. *)

val bytes_in_lines : t -> line_bytes:int -> int
(** [lines * line_bytes]: cache bytes occupied, the paper's "size in bytes"
    for a given line size. *)

val union : t -> t -> t

val iter_ranges : t -> (int -> int -> unit) -> unit
(** Iterate maximal touched ranges as [(addr, len)], ascending. *)
