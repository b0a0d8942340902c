(** Deterministic domain-based work pool for embarrassingly parallel
    simulation sweeps, and the one fork–join primitive behind it.

    Every sweep in the reproduction evaluates dozens of independent
    (discipline x rate x layout x seed) simulation points; each point owns
    its RNG stream and its own memory-system state, so the points can run
    on separate domains with no coordination.  [map] farms the points out
    to the members of a {!Gang} and reassembles the results {e in input
    order}, so a parallel run is observably identical to a sequential one:
    same seeds, same tables, same figures, regardless of the domain count.

    Domain-count resolution, in priority order:

    + the explicit [?domains] argument;
    + the [LDLP_DOMAINS] environment variable (a positive integer);
    + [Domain.recommended_domain_count ()].

    [domains = 1] takes a strictly sequential path on the calling domain —
    no domain is spawned — which is also the fallback whenever there is at
    most one task. *)

val max_domains : int
(** Upper bound on the pool size (guards against absurd [LDLP_DOMAINS]
    values); requests above it are clamped. *)

val available_domains : unit -> int
(** The domain count used when [?domains] is omitted: [LDLP_DOMAINS] if
    set to a positive integer, else [Domain.recommended_domain_count ()].
    Always at least 1. *)

val resolve_domains : ?domains:int -> unit -> int
(** The count [map] will actually use.  Raises [Invalid_argument] if an
    explicit [domains] is not positive. *)

(** A fork–join gang: [domains] members that run every job together.

    Member 0 is the calling domain; member [w >= 1] is one helper domain,
    spawned by the gang's first {!run}, that runs member [w]'s part of
    every job for the gang's whole life, so a member's state can stay
    domain-local across jobs.  Each task of {!map_array} runs start to
    finish on one member, and state it builds stays on that domain:
    [Soak.run_all]'s {!map} builds tcpmini hosts on helper domains, with
    their PCB [Flowtable]s (whose owner tripwire raises on access from
    another domain) and per-domain [Tcp_input] counters, and
    [Mesh.run_storm_sharded] runs each shard's [Uni] hosts, call tables
    included, and message pool on its own member.  No other module in
    the library spawns a domain. *)
module Gang : sig
  type t

  val with_gang : domains:int -> (t -> 'a) -> 'a
  (** [with_gang ~domains body] runs [body] on the calling domain with
      a gang of [domains] members, and joins the [domains - 1] helpers
      when [body] returns or raises.  [domains = 1] spawns nothing.
      Raises [Invalid_argument] unless [domains >= 1]. *)

  val run : t -> (int -> unit) -> unit
  (** [run gang f] calls [f w] once for every member [w], each on its
      member's domain, and returns when all of them have returned: a
      barrier.  Writes made by any member in one [run] are visible to
      every member in the next.  If members raise, the exception of the
      {e lowest} raising member is re-raised with its backtrace, after
      every member has finished. *)
end

val map : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains f xs] computes [List.map f xs] with up to [domains]
    gang members (the caller's domain included), each owning a
    contiguous block of the input — one shared-state touch per member,
    not one per task.  Results are returned in input order.  If tasks
    raise, each member stops at its first failing task, the members are
    joined, and then the exception of the {e lowest-indexed} failing task
    is re-raised with its backtrace — deterministic regardless of
    scheduling. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Array counterpart of {!map}. *)
