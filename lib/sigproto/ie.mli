(** Information elements: the TLV-encoded parameters carried by Q.93B-style
    signalling messages (called/calling party, QoS class, VPI/VCI, cause). *)

type t = { id : int; data : string }

(** Well-known element identifiers (values follow Q.931/Q.93B flavour but
    are local to this implementation). *)

val id_called_party : int

val called_party : string -> t
(** Address as an opaque string (e.g. ["switch-b:12"]). *)

val qos : int -> t
(** QoS class 0-255. *)

val vpc_vci : vpi:int -> vci:int -> t
(** 8-bit VPI, 16-bit VCI. *)

val cause : int -> t

val find : int -> t list -> t option

type error = [ `Truncated | `Bad_length of int ]

val encoded_length : t list -> int

val encode_list : t list -> bytes -> int -> int
(** [encode_list ies buf off] writes the elements, returns the offset past
    them.  Layout per element: id byte, 2-byte big-endian length, data. *)

val decode_list : bytes -> int -> int -> (t list, error) result
(** [decode_list buf off len] parses elements from exactly [len] bytes. *)
