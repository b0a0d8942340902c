(** Q.93B-style connection-control messages.

    Wire layout (loosely after Q.931/Q.93B):
    {v
      byte 0      protocol discriminator (0x09)
      byte 1      call reference length (always 3 here)
      bytes 2-4   call reference; top bit of byte 2 is the direction flag
      byte 5      message type
      bytes 6-7   message length (big-endian), counting only the IEs
      bytes 8..   information elements
    v}

    Two forms read and write it.  The record codec ({!encode},
    {!decode}) builds a {!t} with an {!Ie.t} list; the examples and the
    tests use it.  The cursor form reads a message where it lies:
    {!check_at} validates it, then the [*_at] readers take single fields,
    and {!write_header} fills in a header in place.  The switch and {!Uni}
    run on the cursor form, which allocates nothing. *)

type msg_type =
  | Setup
  | Call_proceeding
  | Connect
  | Connect_ack
  | Release
  | Release_complete
  | Status
  | Status_enquiry

val msg_type_name : msg_type -> string

type t = {
  call_ref : int;  (** 23-bit call reference. *)
  from_originator : bool;  (** Direction flag. *)
  typ : msg_type;
  ies : Ie.t list;
}

val v : ?from_originator:bool -> call_ref:int -> msg_type -> Ie.t list -> t

type error =
  [ `Too_short of int
  | `Bad_discriminator of int
  | `Bad_call_ref_length of int
  | `Unknown_type of int
  | `Bad_length of int
  | Ie.error ]

val encode : t -> bytes

val decode : bytes -> (t, error) result

val decode_sub : bytes -> int -> int -> (t, error) result
(** Decode from a slice. *)

(** {1 Cursor access} *)

val header_bytes : int
(** 8: the bytes before the information elements. *)

val check_at : bytes -> int -> int -> int
(** [check_at buf off len] validates the message in the [len] bytes at
    [off]: it accepts exactly what {!decode_sub} accepts, and returns the
    length of its information elements, or -1.  Bytes after the elements
    are ignored, as {!decode_sub} ignores them.  Call it before trusting
    any [*_at] reader. *)

val call_ref_at : bytes -> int -> int
(** The 23-bit call reference of the message at the offset. *)

val from_originator_at : bytes -> int -> bool
(** Its direction flag. *)

val typ_at : bytes -> int -> msg_type
(** Its type; raises [Invalid_argument] on a code {!check_at} rejects. *)

val ie_length_at : bytes -> int -> int
(** The length of its information elements, which follow the header. *)

val type_code : msg_type -> int
(** The type's code in byte 5. *)

val write_header :
  bytes ->
  int ->
  call_ref:int ->
  from_originator:bool ->
  code:int ->
  ie_len:int ->
  unit
(** [write_header buf off ~call_ref ~from_originator ~code ~ie_len] writes
    a header at [off] for a message of type [code] (see {!type_code})
    whose [ie_len] bytes of elements follow it. *)
