(** Socket receive buffer — the [sbappend]/[soreceive] pair of the paper's
    Table 2 path, reduced to its data plane.

    Bytes appended by the protocol accumulate until the application reads
    them; a high-water mark bounds occupancy and determines the window the
    protocol advertises.

    The buffer is one byte ring, allocated on the first append and
    doubled, up to [hiwat], when an append does not fit.  Appends copy
    straight into it from an mbuf chain, so a connection in steady state
    allocates nothing per segment; only {!read} allocates,
    the bytes it hands out. *)

type t

val create : ?hiwat:int -> unit -> t
(** Default high-water mark 16384 bytes. *)

val hiwat : t -> int

val length : t -> int
(** Unread bytes. *)

val space : t -> int
(** Room left before the high-water mark (never negative). *)

val append_mbuf : t -> Ldlp_buf.Mbuf.t -> pos:int -> len:int -> int
(** [append_mbuf sb m ~pos ~len] appends as much of the [len] payload
    bytes at logical offset [pos] of chain [m] as fits, copying them once,
    straight from the chain; returns the number accepted.  The chain is
    not consumed. *)

val read : t -> int -> bytes
(** [read sb n] removes and returns up to [n] bytes (the [soreceive]
    copyout). *)

val read_all : t -> bytes

val wakeups : t -> int
(** How many times an append made data available to a sleeping reader
    (transitions from empty to non-empty — the [sowakeup] count). *)
