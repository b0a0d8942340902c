(** A flat open-addressing table from packed integer keys to integer
    values.

    Two int arrays hold every entry, one for keys and one for values, so
    no entry is a heap block: inserting allocates nothing (until the
    table grows), nothing is promoted with a live entry, and the major GC
    scans the arrays' words without following any of them.  A lookup
    returns the entry's slot, or [-1] when the key is absent, never an
    option.  This is the structure {!Ldlp_sigproto.Switch} keeps its call
    legs in.

    Keys are non-negative ints; callers pack several fields into one
    (the switch packs port, call-reference flag and call reference).  A
    key's home slot comes from the top bits of a multiplicative hash, so
    keys that differ only in their high bits still spread over the slots.
    Probing is linear; removal moves later members of the probe cluster
    back into the gap, so there are no tombstones and a probe ends at the
    first empty slot.  The table doubles when it would pass half full. *)

type t

val create : unit -> t
(** An empty table of 64 slots. *)

val find : t -> int -> int
(** [find t k] is the slot holding [k], or [-1] when [k] is absent
    (every negative key is absent). *)

val value : t -> int -> int
(** [value t slot] is the value stored at a slot {!find} returned.  A
    slot is valid until the next {!add} or {!remove}. *)

val add : t -> int -> int -> unit
(** [add t k v] binds [k] to [v], replacing any earlier binding.  Raises
    [Invalid_argument] on a negative key. *)

val remove : t -> int -> unit
(** Unbind a key; absent keys are ignored. *)

val length : t -> int
(** The number of bound keys. *)

val slots : t -> int
(** The current number of slots, a power of two. *)

val home : t -> int -> int
(** [home t k] is the slot a probe for [k] starts at in the current
    geometry; [(find t k - home t k) land (slots t - 1)] is how far [k]
    was displaced.  For tests of the hash's spread. *)
