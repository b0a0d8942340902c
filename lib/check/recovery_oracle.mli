(** End-to-end recovery oracle over the mesh call storm under a host
    lifecycle plan — the crash-time counterpart of {!Mesh_oracle}.

    Runs the storm on every wiring (through {!Ldlp_par.Pool.map}) and
    re-derives, from raw counters, the properties the recovery design
    claims:

    - {b conservation}: both extended ledger identities hold, crash
      causes included, and match the recorded flag;
    - {b eventual completion}: every offered call is completed or
      explicitly abandoned — no call hangs in the retry engine, and the
      legacy supervision-failure path stays unused;
    - {b leak audit}: the message pool is empty at quiescence, crash
      and restart notwithstanding;
    - {b cross-wiring equivalence}: conv/LDLP/duplex agree on the
      per-pair delivery and abandonment multisets, the retry and
      admission-deferral counts, and every time-to-recover sample;
    - {b determinism}: the same storm run twice is equal in every
      field (pins the seeded backoff jitter);
    - {b shard-merge exactness}: [run_storm_sharded] under the crash
      plan merges to the single-domain storm, bit for bit. *)

type divergence = { d_what : string; d_left : string; d_right : string }

val pp_divergence : Format.formatter -> divergence -> unit

val run :
  ?domains:int ->
  ?calls_per_pair:int ->
  Ldlp_mesh.Mesh.config ->
  (int, divergence) result
(** [Ok n] reports the number of checks that passed.  The shard-merge
    probe runs at 3 shards.  The config should carry a non-empty
    [lifecycle] for the checks to exercise the recovery driver rather
    than vacuously pass. *)
