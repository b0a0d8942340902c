(** Q.93B-style connection-control messages.

    Wire layout (loosely after Q.931/Q.93B):
    {v
      byte 0      protocol discriminator (0x09)
      byte 1      call reference length (always 3 here)
      bytes 2-4   call reference; top bit of byte 2 is the direction flag
      byte 5      message type
      bytes 6-7   message length (big-endian), counting only the IEs
      bytes 8..   information elements
    v} *)

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

val encoded_length : t -> int

val encode : t -> bytes

val decode : bytes -> (t, error) result

val decode_sub : bytes -> int -> int -> (t, error) result
(** Decode from a slice. *)
