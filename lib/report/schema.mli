(** The machine-readable documents: [ldlp_repro stats --json] and the
    seven [BENCH_*.json] files, four written by the [ldlp_repro]
    experiments ({!Experiment}) and three by [bench/main.exe].

    Each document is described once, as data: its schema tag, its header
    and row fields in order with the format each is printed in, and the
    invariants its reader checks.  {!render} prints a document from plain
    values through {!Json.to_string}; {!parse} reads any JSON layout and
    validates it against the same description. *)

type t

(** A document's contents in field order.  [Rows] is an array of row
    objects, [Rec] one nested object. *)
type value =
  | I of int
  | F of float
  | S of string
  | B of bool
  | Rows of value list list
  | Rec of value list

val render : t -> value list -> string
(** Prints the values under the schema's keys and formats.  Checks only
    shape, not the invariants, so a forged document can be written and
    then rejected by {!parse}.
    @raise Invalid_argument if the values do not match the fields. *)

val parse : t -> string -> (Json.t, string) result
(** The document, after checking its tag, the presence and type of every
    field (an integer field must hold an integer literal) and every
    invariant.  Unknown members are ignored. *)

(** {1 The documents} *)

val sweeps : t
(** ["ldlp-bench-sweeps/1"]: [host_cores], [default_domains], then one
    [sweeps] row per sweep generator timed at 1 and N domains.  Checks
    that [speedup] matches [seq_seconds / par_seconds]. *)

val stats : t
(** ["ldlp-stats/1"]: one [sheets] row per metric sheet, with per-layer
    counter rows, scalars and batch/depth/latency histogram summaries. *)

val hotpath : t
(** ["ldlp-bench-hotpath/1"]: the conventional vs LDLP hot path per
    discipline.  Checks that no measure is negative. *)

val soak : t
(** ["ldlp-bench-soak/1"]: one [ladder] row per loss rate.  Checks loss in
    \[0, 1) and non-negative measures. *)

val mesh : t
(** ["ldlp-bench-mesh/1"]: [spread] rows per (hosts, wiring) and [storm]
    rows for the Q.93B call storm.  Checks a non-empty wiring,
    non-negative measures and [completed <= calls]. *)

val recovery : t
(** ["ldlp-bench-recovery/1"]: one row per wiring and crash rung.  Checks
    non-negative measures, [completed + abandoned <= calls] and
    [retry_amplification >= 1]. *)

val shards : t
(** ["ldlp-bench-shards/1"]: one row per shard count.  Checks non-negative
    measures, [shards >= 1] and that [cpu_pairs_per_s] matches
    [completed / cpu_s_max]. *)

val flows : t
(** ["ldlp-bench-flows/1"]: one row per (flows, scheme, discipline).
    Checks the discipline tag, [model_misses <= lookups] and that
    [misses_per_lookup] matches [model_misses / lookups]. *)
