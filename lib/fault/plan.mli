(** A fault schedule for one direction of a link.

    A plan is pure data: probabilities, a reorder window, and scheduled
    link-down episodes.  Combined with an integer seed (see {!Impair}) it
    describes a byte-for-byte replayable impairment stream — the same
    plan + seed always drops, duplicates, corrupts and reorders exactly
    the same frames, independent of host or domain count. *)

type t = {
  drop : float;  (** Per-frame loss probability, [0, 1). *)
  dup : float;  (** Per-frame duplication probability, [0, 1). *)
  corrupt : float;
      (** Per-copy probability of a single random bit flip, [0, 1). *)
  reorder : float;
      (** Per-copy probability of being held back and released after
          [reorder_window] later frames have passed, [0, 1). *)
  reorder_window : int;
      (** How many subsequent frames overtake a held frame.  Must be >= 1
          when [reorder > 0].  When traffic stops, the wire flushes a
          held frame after 50 ms regardless. *)
  jitter : float;  (** Extra uniform-random latency in [0, jitter) seconds. *)
  down : (float * float) list;
      (** Scheduled link-down episodes [(start, stop)); frames sent while
          the link is down vanish.  Must be sorted and disjoint. *)
}

val none : t
(** The identity plan: every field zero, nothing impaired. *)

val v :
  ?drop:float ->
  ?dup:float ->
  ?corrupt:float ->
  ?reorder:float ->
  ?reorder_window:int ->
  ?jitter:float ->
  ?down:(float * float) list ->
  unit ->
  t
(** Build and {!validate} a plan.  Defaults are all zero (= {!none});
    [reorder_window] defaults to 4. *)

val validate : t -> unit
(** Raises [Invalid_argument] on probabilities outside [0, 1), a negative
    jitter, a non-positive window with [reorder > 0], or
    unsorted/overlapping down episodes. *)

val is_none : t -> bool
(** Whether the plan impairs nothing (down episodes included). *)

val link_up : t -> float -> bool
(** Whether the link is up at the given time (outside every down
    episode). *)

val describe : t -> string
(** Compact one-line summary, e.g. ["drop=5% dup=2% corrupt=0.1%
    reorder=10%/w4"]; ["pristine"] for {!none}.  Deterministic — used in
    golden-snapshotted tables. *)

(** {1 Host lifecycle plans}

    A lifecycle plan schedules when a {e host} (not a link) is dead:
    during a crash episode the host loses its volatile state — parked
    frames, signalling state — and frames delivered to it are ledgered,
    never silently lost.  Like link plans, a lifecycle is pure data;
    combined with the mesh seed it is byte-replayable at any domain
    count. *)

type host = {
  crash : (float * float) list;
      (** Crash episodes [(down_at, up_at)); the host is dead for
          [down_at <= now < up_at].  Must be sorted and disjoint. *)
}

val host_none : host
(** An immortal host: no crash episodes. *)

val host_v : ?crash:(float * float) list -> unit -> host
(** Build and {!validate_host} a lifecycle. *)

val validate_host : host -> unit
(** Raises [Invalid_argument] on unsorted, overlapping or empty
    episodes. *)

val host_is_none : host -> bool

val host_up : host -> float -> bool
(** Whether the host is alive at the given time. *)

val describe_host : host -> string
(** Compact summary, e.g. ["crash@0.1s+50ms"]; ["immortal"] for
    {!host_none}.  Deterministic — used in golden-snapshotted tables. *)

val lifecycle :
  ?victims:float ->
  ?episodes:int ->
  ?min_outage:float ->
  ?mean_outage:float ->
  ?flap:float ->
  seed:int ->
  hosts:int ->
  horizon:float ->
  unit ->
  host array
(** Seeded lifecycle generator: each host is independently a victim with
    probability [victims] (default 0.25); a victim gets [episodes]
    (default 1) crash episodes, one per equal slice of [horizon], with
    outages drawn uniformly around [mean_outage] (default 50 ms, at
    least [min_outage]).  With probability [flap] an episode splits into
    two (the host comes back briefly, then dies again).  A pure function
    of its arguments: hosts are drawn in index order from a single
    private stream.  Every generated host validates. *)

val lifecycle_episodes : host array -> int
(** Total crash episodes across all hosts. *)

val describe_lifecycle : host array -> string
(** One-line summary, e.g. ["8/32 hosts crash (9 episodes)"]. *)
