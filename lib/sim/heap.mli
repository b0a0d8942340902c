(** Binary min-heap keyed by [float] priorities.

    Used as the event queue of the discrete-event {!Engine}: the smallest key
    (earliest timestamp) is popped first.  Ties are broken by insertion order
    (FIFO), which keeps simulations deterministic.

    Keys, insertion sequence numbers and values sit in three parallel
    arrays, so once the arrays have grown, {!push}, {!peek_key} and
    {!pop_min} allocate nothing.  The minimum key comes back through a
    caller's float cell rather than as a return value, because a float
    returned across modules is boxed. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ()] is an empty heap.  [capacity] (default 64, at least 1)
    sizes the backing arrays: the first [capacity] pushes never grow
    them. *)

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h key v] inserts [v] with priority [key]. *)

val peek_key : 'a t -> float array -> bool
(** [peek_key h cell] stores the minimum key in [cell.(0)] and returns
    [true], or returns [false] and leaves [cell] alone if [h] is empty. *)

val pop_min : 'a t -> 'a
(** Remove the minimum-key binding, FIFO among equal keys, and return its
    value ({!peek_key} gives its key).  Raises [Invalid_argument] if the
    heap is empty. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> (float * 'a) list
(** Non-destructive ascending dump (for tests and debugging). *)
