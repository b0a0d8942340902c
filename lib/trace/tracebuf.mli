(** Growable buffer of trace events, in reference order. *)

type t

val create : unit -> t

val add : t -> Event.t -> unit

val length : t -> int

val iter : t -> (Event.t -> unit) -> unit

val fold : t -> init:'a -> f:('a -> Event.t -> 'a) -> 'a
