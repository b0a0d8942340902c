(** Batch-size policies for the bottom layer of an LDLP stack.

    Section 3.2: "Messages are processed in batches consisting of as many
    available messages as will fit in the data cache."  [Dcache_fit]
    implements exactly that; [Fixed] and [All] exist for ablation (a fixed
    block is the off-line blocked algorithm; [All] is unbounded on-line
    batching). *)

type policy =
  | Fixed of int  (** At most N messages per batch. *)
  | Dcache_fit of { cache_bytes : int; per_msg_overhead : int }
      (** As many messages as fit in [cache_bytes], counting each message's
          size plus [per_msg_overhead] (mbuf headers, queue entries). *)
  | All  (** Every available message. *)

val paper_default : policy
(** [Dcache_fit] for the paper's 8 KB data cache with a 32-byte per-message
    overhead. *)

val limit : policy -> len:int -> size:(int -> int) -> int
(** [limit p ~len ~size] is how many of the [len] pending messages one
    batch may take; [size k] is the byte size of the [k]-th (front of
    queue first), queried for [k < len] in order until the policy stops.
    Always at least 1 when any message is pending — a message larger
    than the cache must still be processed.  The engine's quantum loop
    calls it with a prebuilt accessor, so computing a batch bound
    allocates nothing. *)

val pp : Format.formatter -> policy -> unit
