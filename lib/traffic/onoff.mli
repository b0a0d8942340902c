(** Self-similar traffic from aggregated heavy-tailed ON/OFF sources.

    The paper drives Figure 7 with the Leland et al. Bellcore Ethernet
    traces, chosen because "Poisson processes are not representative of many
    real-world traffic sources".  Those traces are not distributable here,
    so we synthesise traffic with the mechanism Leland/Taqqu/Willinger
    themselves identified as generating the traces' self-similarity: many
    independent ON/OFF sources whose ON and OFF period lengths are Pareto
    distributed with tail exponent 1 < alpha < 2.  The aggregate is
    asymptotically self-similar with Hurst parameter H = (3 - alpha) / 2.

    Tests verify (via {!Hurst}) that this source is measurably burstier than
    Poisson at equal mean rate. *)

type config = {
  sources : int;  (** Number of aggregated ON/OFF sources. *)
  alpha_on : float;  (** Pareto tail exponent of ON periods. *)
  alpha_off : float;
  mean_on : float;  (** Mean ON period, seconds. *)
  mean_off : float;
  peak_rate : float;  (** Packets/second emitted by one source while ON. *)
}

val default : config
(** 32 sources, alpha 1.2/1.2, mean ON 50 ms / OFF 1.1 s, 1000 pkt/s peak:
    ~1390 pkt/s aggregate mean — a load that saturates the conventional
    stack just below a 40 MHz clock, reproducing Figure 7's knee. *)

val source :
  rng:Ldlp_sim.Rng.t -> ?config:config -> unit -> Source.t
(** Infinite aggregated stream; sizes drawn from {!Sizes.ethernet_mix}. *)
