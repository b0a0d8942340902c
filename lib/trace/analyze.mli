(** Working-set analysis of reference traces — the machinery behind the
    paper's Table 1 (per-category working sets), Table 3 (cache-line-size
    sensitivity), Figure 1 (per-phase/per-function map) and the Section 5.4
    cache-dilution estimate. *)

type row = {
  category : Funcmap.category;
  code_bytes : int;  (** Touched code, in bytes of cache lines. *)
  ro_bytes : int;  (** Data lines loaded but never stored. *)
  mut_bytes : int;  (** Data lines stored at least once. *)
}

type table1 = { rows : row list; total : row }
(** [total.category] is meaningless (it repeats the first category). *)

val table1 : Tracebuf.t -> table1
(** Classify every referenced 32-byte line by category of first touch and
    by kind, exactly as Table 1:
    "Data is considered read-only if it was not modified during the
    trace." *)

type sweep_row = {
  line_size : int;
  code_lines : int;
  code_line_bytes : int;
  ro_lines : int;
  ro_line_bytes : int;
  mut_lines : int;
  mut_line_bytes : int;
}

val line_size_sweep : Tracebuf.t -> sweep_row list
(** Totals at Table 3's line sizes, 4, 8, 16, 32 and 64 bytes.
    Deltas against the 32-byte baseline give Table 3. *)

type phase_summary = {
  phase : Event.phase;
  code_bytes : int;  (** Distinct code bytes referenced in the phase. *)
  code_refs : int;
  read_bytes : int;
  read_refs : int;
  write_bytes : int;
  write_refs : int;
}

val phases : Tracebuf.t -> phase_summary list
(** Figure 1's per-phase footers. *)

type func_touch = { fn : string; bytes : int }

val functions : Tracebuf.t -> func_touch list
(** Distinct code bytes per function, descending — Figure 1's map. *)

type dilution = {
  touched_code_bytes : int;  (** Bytes actually executed. *)
  line_code_bytes : int;  (** Bytes occupied by their 32-byte lines. *)
  dilution_fraction : float;
      (** Fraction of fetched bytes never executed (the paper estimates
          ~25%). *)
  dense_lines : int;  (** Lines a perfectly dense layout would need. *)
  sparse_lines : int;
}

val dilution : Tracebuf.t -> dilution
