(** Internet checksum (RFC 1071) in two styles, mirroring the paper's
    Figure 8 study:

    - {!simple}: a straightforward 16-bit accumulation loop — small code
      footprint (the paper's 288-byte routine), more work per byte;
    - {!unrolled}: an elaborate 16-words-per-iteration unrolled loop with
      alignment and tail handling, modelled on 4.4BSD [in_cksum] — large
      footprint (992 bytes active), fewer operations per byte.

    Both compute the same ones-complement sum; the property tests assert
    equality on arbitrary inputs, and the model library attaches cold/warm
    cache cost models to each. *)

val simple : bytes -> int -> int -> int
(** [simple buf off len] is the 16-bit ones-complement checksum of the
    range, folded and complemented, in [0, 0xffff]. *)

val unrolled : bytes -> int -> int -> int
(** Same result as {!simple}, computed with an unrolled loop. *)

val simple_chain : Ldlp_buf.Mbuf.t -> int
(** Checksum an mbuf chain without linearising it, handling odd-length
    segments with byte-swapped carry as 4.4BSD does.  Allocates
    nothing. *)

val unrolled_chain : Ldlp_buf.Mbuf.t -> int

val partial : bytes -> int -> int -> int
(** Uncomplemented partial sum of the range's network-order 16-bit words,
    for pseudo-header combination: the plain sum on a big-endian host,
    its 16-bit fold on a little-endian one (each word is one native
    load, and the sum is swapped back once).  Either way {!finish} of it,
    alone or added to other partial sums, is the same checksum. *)

val unrolled_partial : bytes -> int -> int -> int
(** {!partial} computed with {!unrolled}'s loop. *)

val finish : int -> int
(** Fold a partial sum to 16 bits and complement. *)

val code_bytes_simple : int
(** Active code footprint the paper reports for the simple routine (288). *)

val code_bytes_unrolled : int
(** Active footprint of 4.4BSD's routine for messages > 32 bytes (992). *)
