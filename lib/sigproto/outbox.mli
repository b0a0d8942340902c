(** What a signalling endpoint hands its caller: the SSCOP frames to
    transmit and the events to act on, as one sequence of entries in the
    order the endpoint made them.

    An entry is a frame or an event, held in columns: its kind, a call
    reference, a byte slot with an offset into it, and a reason.  No
    entry is a heap block, so once the columns have grown, adding one
    allocates nothing.

    A caller reads the entries above a mark: it takes {!top} before an
    operation on the endpoint, transmits the frames between that mark and
    the new top in order, then acts on the events in order, then {!drop}s
    back to the mark.  An event handler may operate on the same endpoint
    again: that operation's entries land above the caller's, and the
    handler drains them above its own mark before the caller goes on. *)

type kind =
  | Frame  (** {!data} is an SSCOP frame to transmit. *)
  | Link_up  (** The SSCOP connection reached its ready state. *)
  | Link_down  (** The connection was released or reset; see {!reason}. *)
  | Call_offered
      (** An incoming SETUP for {!call_ref}: the message lies at {!pos} in
          {!data}, the frame it arrived in, until that frame changes. *)
  | Call_connected
  | Call_released
  | Call_failed  (** A timer expiry or a protocol error; see {!reason}. *)

type t

val create : unit -> t

val top : t -> int
(** The number of entries: the mark for the next operation's. *)

val kind : t -> int -> kind
(** [kind t i] is entry [i]'s kind, counting from 0.  This and the
    readers below raise [Invalid_argument] unless [i] is below {!top}. *)

val data : t -> int -> bytes
(** A frame, or an offered call's frame; [Bytes.empty] otherwise. *)

val pos : t -> int -> int
(** The offset in {!data} of an offered call's SETUP; 0 otherwise. *)

val call_ref : t -> int -> int
(** The call an event is about; 0 for frames and link events. *)

val reason : t -> int -> string
(** Why a link went down or a call failed; [""] otherwise. *)

val drop : t -> int -> unit
(** [drop t mark] removes every entry at [mark] and above. *)

(** {1 Adding entries} (the endpoint's side) *)

val add_frame : t -> bytes -> unit

val add_event : t -> kind -> call_ref:int -> string -> unit
(** An event with its call reference and reason. *)

val add_offer : t -> call_ref:int -> bytes -> int -> unit
(** [add_offer t ~call_ref buf pos]: a {!Call_offered} event whose SETUP
    lies at [pos] in [buf]. *)
