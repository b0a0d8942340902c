(** The surface check's own fixture: one export per case the check
    tells apart, used by bin/ (a program) and test/ (a test). *)

val dead : int -> int
(** Used by nothing. *)

val own : int -> int
(** Used only inside this module. *)

val probe : int -> int
(** Used outside this module only by the test. *)

val make : ?never:int -> ?tested:int -> ?inner:int -> unit -> int
(** The program calls it without options, so the compiler fills each
    with a ghost [None]; the test passes [tested]; this module passes
    [inner]; nothing passes [never]. *)

val scale : ?fwd:int -> int -> int
(** The program only forwards [?fwd]. *)

val shift : ?partial:int -> by:int -> unit -> int
(** The program applies it partially, omitting [partial]. *)
