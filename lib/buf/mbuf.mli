(** 4.4BSD-style message buffers (mbufs).

    The paper's LDLP scheme requires "a buffer management scheme where lower
    layers hand off their buffers to the higher layers" (Section 3.2) and
    names the 4.4BSD mbuf system as a good fit.  This module reproduces its
    essential operations: small fixed-size buffers chained into messages,
    with spare leading space so headers can be prepended/stripped without
    copying payload bytes.

    A message is a chain of mbufs; all operations take the chain head.
    Buffers come from a {!Pool}; [free] returns them for reuse. *)

type t

exception Invalid of string
(** Raised on out-of-range offsets/lengths. *)

(** {1 Allocation} *)

val get : Pool.t -> t
(** One empty mbuf with 64 bytes of leading space reserved. *)

val free : Pool.t -> t -> unit
(** Return an entire chain to the pool.  The chain must not be used after. *)

val of_bytes : Pool.t -> bytes -> t
(** Build a chain holding a copy of [bytes], split across mbufs/clusters as
    needed, with 64 bytes of leading space in the first mbuf. *)

val of_string : Pool.t -> string -> t

(** {1 Inspection} *)

val length : t -> int
(** Total payload bytes in the chain. *)

val nsegs : t -> int
(** Number of mbufs in the chain. *)

val to_bytes : t -> bytes
(** Copy of the whole payload, linearised. *)

(** {2 In-place cursor access}

    The zero-copy window onto the head segment that the cursor-based
    header readers ({!Ldlp_packet}'s [*_at] accessors) use: after
    {!pullup}[ pool m n], the first [n] payload bytes sit at
    [seg_off m] inside [seg_data m] and can be read in place, with no
    [copy_out] and no intermediate header record.  The three accessors
    are split (rather than returning a tuple or option) so asking for
    the window allocates nothing. *)

val contiguous : t -> int -> bool
(** [contiguous m n] is true when the first [n] payload bytes already lie
    in the head mbuf — the precondition for reading them in place. *)

val seg_data : t -> bytes
(** Backing store of the head mbuf.  Bytes outside
    [[seg_off m, seg_off m + n)] (for [contiguous m n]) belong to the
    allocator, not the payload. *)

val seg_off : t -> int
(** Offset of the first payload byte inside {!seg_data}. *)

val get_byte : t -> int -> int
(** Byte at logical offset, walking the chain. *)

val fold_segments : t -> ('a -> bytes -> int -> int -> 'a) -> 'a -> 'a
(** [fold_segments m f acc] threads [acc] through [f acc data off len] for
    each non-empty segment in order.  This is the zero-copy traversal the
    chain checksum uses: with a toplevel [f] and an immediate [acc], a
    traversal allocates nothing. *)

(** {1 Mutation} *)

val prepend : t -> int -> t
(** [prepend m n] makes room for an [n]-byte header in front of the payload,
    allocating nothing when the first mbuf has leading space (the common
    case), otherwise raising [Invalid].  Returns the (possibly same) chain
    head. *)

val adj : t -> int -> unit
(** [adj m n] trims [n] bytes: from the front when positive (header strip),
    from the back when negative, like 4.4BSD [m_adj]. *)

val pullup : Pool.t -> t -> int -> t
(** [pullup pool m n] rearranges the chain so its first [n] bytes are
    contiguous in the first mbuf, copying at most [n] bytes ([n] must be
    <= 128, the size of an mbuf's data area).  Returns the new head. *)

val split : Pool.t -> t -> int -> t * t
(** [split pool m n] severs the chain after [n] payload bytes, copying the
    boundary mbuf's tail into a fresh mbuf.  Returns [(front, back)]. *)

val concat : t -> t -> t
(** [concat a b] appends chain [b] to chain [a]; returns [a]'s head. *)

val append_bytes : Pool.t -> t -> bytes -> unit
(** Copy bytes onto the end of the chain, extending it as needed. *)

val copy_into : t -> pos:int -> bytes -> src_off:int -> len:int -> unit
(** Overwrite [len] payload bytes at logical offset [pos].  Allocates
    nothing. *)

val copy_out : t -> pos:int -> len:int -> bytes
(** Copy [len] payload bytes starting at logical offset [pos]. *)

val blit_to_bytes : t -> pos:int -> bytes -> dst_off:int -> len:int -> unit
(** Copy [len] payload bytes starting at logical offset [pos] into the
    buffer at [dst_off].  Allocates nothing. *)
