(** Variance-time estimation of the Hurst parameter.

    Used by the tests to check the substitution argument for Figure 7: the
    aggregated ON/OFF source must be self-similar (H well above 0.5) while
    Poisson arrivals are not (H near 0.5).  The estimator bins arrivals into
    counts, aggregates the series at several block sizes [m], and fits
    [log Var(X^(m)) ~ (2H - 2) log m]. *)

val counts : bin:float -> horizon:float -> Source.packet list -> float array
(** Packet counts per [bin]-second interval over [0, horizon). *)

val of_packets : bin:float -> horizon:float -> Source.packet list -> float
