type config = {
  sources : int;
  alpha_on : float;
  alpha_off : float;
  mean_on : float;
  mean_off : float;
  peak_rate : float;
}

let default =
  {
    sources = 32;
    alpha_on = 1.2;
    alpha_off = 1.2;
    mean_on = 0.05;
    mean_off = 1.1;
    peak_rate = 1000.0;
  }

(* Pareto with mean m and shape a (a > 1) has scale m * (a - 1) / a. *)
let pareto_scale ~mean ~alpha = mean *. (alpha -. 1.0) /. alpha

type src_state = { mutable t : float; mutable on_left : float }

let validate c =
  if c.sources <= 0 then invalid_arg "Onoff: sources must be positive";
  if c.alpha_on <= 1.0 || c.alpha_off <= 1.0 then
    invalid_arg "Onoff: alpha must exceed 1 (finite mean)";
  if c.mean_on <= 0.0 || c.mean_off <= 0.0 then
    invalid_arg "Onoff: period means must be positive";
  if c.peak_rate <= 0.0 then invalid_arg "Onoff: peak rate must be positive"

let source ~rng ?(config = default) () =
  validate config;
  let c = config in
  let spacing = 1.0 /. c.peak_rate in
  let scale_on = pareto_scale ~mean:c.mean_on ~alpha:c.alpha_on in
  let scale_off = pareto_scale ~mean:c.mean_off ~alpha:c.alpha_off in
  let rec next_packet src =
    if src.on_left >= spacing then begin
      let at = src.t in
      src.t <- src.t +. spacing;
      src.on_left <- src.on_left -. spacing;
      at
    end
    else begin
      let off = Ldlp_sim.Rng.pareto rng ~shape:c.alpha_off ~scale:scale_off in
      src.t <- src.t +. src.on_left +. off;
      src.on_left <- Ldlp_sim.Rng.pareto rng ~shape:c.alpha_on ~scale:scale_on;
      next_packet src
    end
  in
  (* One heap entry per source, keyed by its next emission time.  Random
     initial phases desynchronise the sources. *)
  let heap = Ldlp_sim.Heap.create ~capacity:c.sources () in
  for _ = 1 to c.sources do
    let src =
      { t = Ldlp_sim.Rng.float rng (c.mean_on +. c.mean_off); on_left = 0.0 }
    in
    let at = next_packet src in
    Ldlp_sim.Heap.push heap at src
  done;
  let key = [| 0.0 |] in
  Source.make (fun () ->
      if not (Ldlp_sim.Heap.peek_key heap key) then None
      else begin
        let at = key.(0) in
        let src = Ldlp_sim.Heap.pop_min heap in
        let next = next_packet src in
        Ldlp_sim.Heap.push heap next src;
        Some { Source.at; size = Sizes.sample rng Sizes.ethernet_mix }
      end)
