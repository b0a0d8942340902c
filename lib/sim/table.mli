(** Plain-text rendering of result tables: aligned columns for humans,
    tab-separated values for downstream plotting. *)

val render : header:string list -> string list list -> string
(** Aligned columns with a separator rule under the header. *)

val fmt_si : float -> string
(** Engineering notation with an SI suffix (e.g. ["1.5k"], ["250u"]),
    matching the paper's axis labels (us/ms/s). *)

val fmt_pct : float -> string
(** Signed percentage, e.g. [+17%] / [-41%], as in Table 3. *)
