(** Destination-locality workload: flow-key arrival streams.

    Models the reference pattern a flow-state lookup path sees (Jain,
    DEC-TR-592): each of [sources] concurrent senders emits trains of
    packets for one destination flow (geometric train lengths, the
    packet-train analogue of the Pareto ON periods in {!Onoff}), flows
    are drawn with Zipf popularity, and the per-source trains are
    interleaved round-robin into one arrival order — so consecutive
    packets of the same flow land [sources] positions apart and the
    arrival order has far worse temporal locality than the traffic
    itself.  That gap is exactly what LDLP batch-sorted lookup recovers
    (the flow study, [Ldlp_flowtable.Study]).

    Deterministic: the stream is a pure function of the {!Ldlp_sim.Rng}
    stream and the config. *)

type config = {
  flows : int;  (** Distinct destination flows (Zipf support). *)
  sources : int;  (** Concurrent senders interleaved round-robin. *)
  alpha : float;  (** Zipf exponent over flow popularity ([> 0]). *)
  mean_train : float;  (** Mean packets per train ([>= 1]). *)
}

type t

val create : rng:Ldlp_sim.Rng.t -> config -> t

val stream : t -> int -> int array
(** [stream t n] is the next [n] arrivals, flow keys in [\[0, flows)]. *)
