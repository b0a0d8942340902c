(** Poisson arrival process — the paper's Figure 5/6 traffic source:
    exponential inter-arrivals at a given rate, 552-byte messages ("a common
    packet size in IP internetworks"). *)

val source :
  rng:Ldlp_sim.Rng.t ->
  rate:float ->
  ?size:int ->
  unit ->
  Source.t
(** Infinite Poisson stream at [rate] messages/second starting after time 0.
    Sizes are fixed at [size] (default 552). *)
