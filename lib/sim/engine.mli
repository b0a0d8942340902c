(** Discrete-event simulation engine: a virtual clock and a time-ordered
    queue of callbacks ({!Heap}).  Events scheduled for the same instant
    fire in the order they were scheduled.

    Scheduling with {!at} and dispatching with {!run} allocate nothing beyond the caller's closure and the boxed float it
    passes as the time; {!after} boxes the time it computes. *)

type t

val create : unit -> t

val now : t -> float
(** Current virtual time in seconds. *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] schedules [f] at absolute virtual [time].  Scheduling in
    the past raises [Invalid_argument]. *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t dt f] schedules [f] at [now t +. dt]. *)

val run : ?until:float -> t -> unit
(** Dispatch events in time order until the queue is empty or virtual time
    would exceed [until].  With [until], the clock is left at [until] and
    later events stay queued. *)
