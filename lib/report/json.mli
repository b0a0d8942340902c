(** The JSON of the BENCH documents: one value type, one parser and one
    printer.  A number keeps its literal text, so a document survives
    parse and print byte for byte and an integer is read back exactly. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** The number's literal text, as written. *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

val parse : string -> (t, string) result
(** Any JSON layout; fails on malformed or trailing input. *)

val to_string : t -> string
(** The layout every committed BENCH file shares: two-space indent, one
    member or element per line, a trailing newline. *)

(** {1 Reading members}

    Each raises {!Error} naming the member when it is missing or of the
    wrong type. *)

val member : t -> string -> t
val int : t -> string -> int
(** An integer literal, read exactly. *)

val num : t -> string -> float
val str : t -> string -> string
val bool : t -> string -> bool
val arr : t -> string -> t list
