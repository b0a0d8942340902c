(** tcpmini echo traffic across the sharded data path.

    [conns] independent echo exchanges; connection [k]'s client is group
    [2k], its server group [2k + 1].  Every endpoint owns a complete
    private stack — mbuf pool, message pool, {!Ldlp_tcpmini.Host},
    {!Ldlp_core.Engine}, timer wheel and (optionally) a metric sheet —
    so the {!Shard.Policy} is free to place the two ends of a connection
    on different domains.  The wire is the {!Handoff}: a transmitted
    frame is serialised to bytes, its mbuf freed on the sending shard,
    and the receiving shard re-materialises it in its own pool — message
    records and mbufs never cross a domain.

    Time is the round counter ([1 ms] per round), so TCP's delayed-ACK
    and retransmit timers fire on a placement-invariant schedule and the
    whole exchange is byte-identical across shard counts — which the
    oracle and QCheck suite pin against [shards = 1]. *)

type config = {
  conns : int;
  chunks : int;  (** Chunks each client sends. *)
  chunk_bytes : int;
  seed : int;  (** Payload noise seed. *)
  with_metrics : bool;
      (** Record per-shard metric sheets (requires the
          {!Ldlp_obs.Obs} gate, which {!run} raises around the
          exchange). *)
}

val config :
  ?conns:int ->
  ?chunks:int ->
  ?chunk_bytes:int ->
  ?seed:int ->
  ?with_metrics:bool ->
  unit ->
  config
(** Defaults: 4 connections, 8 chunks of 64 bytes, seed 1996, metrics
    off. *)

type conn_report = {
  cr_conn : int;
  cr_completed : bool;
  cr_integrity : bool;  (** Echoed stream identical to what was sent. *)
  cr_echoed_bytes : int;
  cr_completion_round : int;  (** Round the echo finished (-1 if not). *)
  cr_retransmits : int;
  cr_client_frames : int;  (** Frames the client end put on the wire. *)
  cr_server_frames : int;
  cr_leak_free : bool;
      (** Both endpoints' mbuf and message pools balanced at quiesce. *)
}

type report = {
  e_conns : conn_report array;
  e_stats : Shard.run_stats;
  e_metrics : Ldlp_obs.Metrics.t option;
      (** Per-shard sheets merged with [Metrics.merge_into] (same layer
          shape on every shard), when [with_metrics]. *)
}

val run : ?policy:Shard.Policy.t -> shards:int -> config -> report
(** Run the exchange on [shards] domains ([1] = the calling domain
    alone). *)

val all_ok : report -> bool
(** Every connection completed with integrity and without leaks. *)

val equal_reports : report -> report -> bool
(** Connection-level equality (ignores [e_stats] and [e_metrics]). *)
