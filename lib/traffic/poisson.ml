let paper_message_size = 552

let source ~rng ~rate ?(size = paper_message_size) () =
  if rate <= 0.0 then invalid_arg "Poisson.source: rate must be positive";
  let mean = 1.0 /. rate in
  let now = ref 0.0 in
  Source.make (fun () ->
      now := !now +. Ldlp_sim.Rng.exponential rng ~mean;
      Some { Source.at = !now; size })
