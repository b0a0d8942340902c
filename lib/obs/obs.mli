(** Global gate for the observability subsystem.

    Mirrors {!Ldlp_core.Invariant}: a single process-wide boolean,
    initialised from the [LDLP_METRICS] environment variable
    ([1]/[true]/[yes]/[on]) and togglable at runtime ([--metrics] on the
    CLI, or the [stats] / [bench --hotpath] entry points which force it
    on).

    Every recording operation in {!Metrics} and its {!Histogram}s is a
    no-op while the gate is off, and the instrumented call sites in the
    schedulers, runtime and cycle model are written so that the disabled
    path performs {e zero allocation} — the Gc-delta test in
    [test/test_obs.ml] pins that down. *)

val enabled : unit -> bool

val with_enabled : bool -> (unit -> 'a) -> 'a
(** [with_enabled b f] runs [f] with the gate forced to [b], restoring the
    previous state afterwards (also on exceptions). *)
