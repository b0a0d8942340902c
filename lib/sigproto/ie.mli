(** Information elements: the TLV-encoded parameters carried by Q.93B-style
    signalling messages (called/calling party, QoS class, VPI/VCI, cause).

    Layout per element: id byte, 2-byte big-endian data length, data.
    Two forms read and write it: the record codec ({!encode_list},
    {!decode_list}) that the examples and the tests use, and whose
    {!encode} builds the elements a {!Uni} call carries, and the cursor
    form that the switch and {!Uni} use, which reads and writes elements
    where they lie in a buffer and allocates nothing. *)

type t = { id : int; data : string }

(** Well-known element identifiers (values follow Q.931/Q.93B flavour but
    are local to this implementation). *)

val id_called_party : int

val called_party : string -> t
(** Address as an opaque string (e.g. ["switch-b:12"]). *)

val qos : int -> t
(** QoS class 0-255. *)

type error = [ `Truncated | `Bad_length of int ]

val encoded_length : t list -> int

val encode_list : t list -> bytes -> int -> int
(** [encode_list ies buf off] writes the elements, returns the offset past
    them. *)

val encode : t list -> bytes
(** The elements, encoded into fresh bytes of {!encoded_length}. *)

val decode_list : bytes -> int -> int -> (t list, error) result
(** [decode_list buf off len] parses elements from exactly [len] bytes. *)

(** {1 Cursor access} *)

val header_bytes : int
(** 3: an element's id and length. *)

val check_list : bytes -> int -> int -> bool
(** [check_list buf off len] is true exactly when {!decode_list} accepts
    the [len] bytes at [off].  It walks the element headers only. *)

val find_at : int -> bytes -> int -> int -> int
(** [find_at id buf off len] is the offset of the first element with
    identifier [id] among the [len] bytes of elements at [off], which
    {!check_list} must accept, or -1.  Its data is the
    {!data_length_at} bytes after its {!header_bytes}. *)

val data_length_at : bytes -> int -> int
(** The data length of the element at the offset. *)

val cause_bytes : int
(** 4: a cause element's size. *)

val write_cause : bytes -> int -> int -> unit
(** [write_cause buf off c] writes a cause element (cause 0-255) at
    [off]. *)

val vpc_vci_bytes : int
(** 6: a VPI/VCI element's size. *)

val write_vpc_vci : bytes -> int -> vpi:int -> vci:int -> unit
(** [write_vpc_vci buf off ~vpi ~vci] writes a VPI/VCI element (8-bit VPI,
    16-bit VCI) at [off]. *)
