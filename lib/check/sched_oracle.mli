(** Equivalence oracle for the LDLP scheduler.

    The paper's core premise (Section 3, restated in Section 5: "LDLP is
    mostly independent from the implementations of the layers themselves")
    is that conventional and blocked scheduling run the {e same}
    per-message work — only the visit order and the cache behaviour
    differ.  This module makes that premise executable: build a stack from
    a declarative {!spec}, run it under [Conventional] and under
    [Ldlp policy], and check that

    - every message visits the same multiset of layers under both
      disciplines;
    - terminal outcomes ([to_up] / [consumed] / [to_down] /
      [misrouted]) are identical;
    - per-flow delivery order is preserved;
    - conservation holds at idle in both runs:
      [injected = to_up + consumed + misrouted], batches cover every
      injected message, and [max_batch >= 1] whenever any batch ran.

    Handlers are deterministic functions of the message's injection index,
    never of processing order — the property would be vacuous otherwise. *)

type behaviour =
  | Pass  (** Deliver every message upward unchanged. *)
  | Consume_every of int
      (** Absorb messages whose injection index is divisible by [k]
          (a demultiplexer dropping traffic for another stack). *)
  | Reply_every of int
      (** For indices divisible by [k], also send a reply downward (an
          acknowledgment) before delivering the original upward. *)

type spec = {
  layers : behaviour list;  (** Bottom-first; must be non-empty. *)
  msgs : (int * int) list;  (** Per message: (flow, byte size). *)
  policy : Ldlp_core.Batch.policy;
  interleave : int;
      (** Inject in chunks of this many messages, running one scheduling
          quantum between chunks (0 = inject everything, then run) — this
          exercises partial batches and arrival/processing races. *)
}

val pp_spec : Format.formatter -> spec -> unit

type trace = {
  visits : int list array;
      (** [visits.(i)]: engine nodes visited by msg [i] and by the replies
          it caused, in visit order. *)
  up_order : int list;
      (** Upward-sink arrivals, as originating injection indices. *)
  down_order : int list;  (** Downward/wire-sink arrivals, likewise. *)
  stats : Ldlp_core.Engine.stats;
}

val run_spec : Ldlp_core.Engine.discipline -> spec -> trace
(** The spec on an {!Ldlp_core.Engine.rx_chain}. *)

val conserved : Ldlp_core.Engine.stats -> pending:int -> bool
(** The conservation invariants above, checkable on any idle receive
    chain. *)

val equivalent : spec -> (unit, string) result
(** Run the spec under [Conventional] and [Ldlp spec.policy] and compare;
    [Error] carries a human-readable description of the first mismatch. *)

(** {1 Transmit-side oracle}

    The same behaviours installed as [handle_tx] drive an
    {!Ldlp_core.Engine.tx_chain}: [Pass] forwards toward the wire,
    [Consume_every] absorbs, [Reply_every] loops a completion
    notification upward before forwarding. *)

val run_spec_tx : Ldlp_core.Engine.discipline -> spec -> trace

val conserved_tx : Ldlp_core.Engine.stats -> pending:int -> bool
(** [injected = to_down + consumed] (loopback notifications are fresh
    messages, not submissions) and batches cover every submission. *)

val equivalent_tx : spec -> (unit, string) result
(** Visit-multiset, terminal-count, per-flow wire-order and conservation
    equivalence for the transmit chain under both disciplines. *)

(** {1 Duplex oracle} *)

val run_spec_duplex : Ldlp_core.Engine.discipline -> spec -> trace
(** The spec's receive behaviours over an {!Ldlp_core.Engine.duplex}:
    replies cross into the same layer's transmit node and descend the
    passthrough transmit side to the wire; [visits] range over the [2n]
    duplex nodes. *)

val equivalent_duplex : spec -> (unit, string) result
(** Visit-multiset (across both directions), terminal-count, per-flow
    delivery-order, wire-multiset and conservation equivalence
    ([injected = to_up + consumed + misrouted]; every reply reaches the
    wire) for the duplex engine under both disciplines.  Wire {e order}
    is deliberately unconstrained: replies originating at different
    receive layers may interleave differently, just as the receive
    oracle never constrains down-sink order. *)

val random_spec : rng:Ldlp_sim.Rng.t -> spec
(** 1-6 layers with mixed behaviours, 0-80 messages over 1-4 flows with
    sizes from 0 to 4 KB, a random batch policy, random interleaving. *)

val run_random : seed:int -> cases:int -> (int, string) result
(** Check [cases] random specs — each through {!equivalent},
    {!equivalent_tx} {e and} {!equivalent_duplex}; [Ok cases] or the
    first failure, prefixed with the offending spec.  Used by
    [ldlp_repro check]. *)
