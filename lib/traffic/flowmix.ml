type config = {
  flows : int;
  sources : int;
  alpha : float;
  mean_train : float;
}

let validate c =
  if c.flows <= 0 then invalid_arg "Flowmix: flows must be positive";
  if c.sources <= 0 then invalid_arg "Flowmix: sources must be positive";
  if c.alpha <= 0.0 then invalid_arg "Flowmix: alpha must be positive";
  if c.mean_train < 1.0 then invalid_arg "Flowmix: mean_train must be >= 1"

type src_state = { mutable flow : int; mutable left : int }

type t = {
  cfg : config;
  rng : Ldlp_sim.Rng.t;
  cdf : float array; (* cumulative Zipf weights, cdf.(flows - 1) = 1 *)
  srcs : src_state array;
  mutable cursor : int;
}

let create ~rng cfg =
  validate cfg;
  let cdf = Array.make cfg.flows 0.0 in
  let acc = ref 0.0 in
  for i = 0 to cfg.flows - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) cfg.alpha);
    cdf.(i) <- !acc
  done;
  let total = !acc in
  for i = 0 to cfg.flows - 1 do
    cdf.(i) <- cdf.(i) /. total
  done;
  {
    cfg;
    rng;
    cdf;
    srcs = Array.init cfg.sources (fun _ -> { flow = 0; left = 0 });
    cursor = 0;
  }

(* First index with cdf.(i) >= u: popular flows get low ranks. *)
let zipf t =
  let u = Ldlp_sim.Rng.unit_float t.rng in
  let lo = ref 0 and hi = ref (t.cfg.flows - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

let next t =
  let src = t.srcs.(t.cursor) in
  t.cursor <- (t.cursor + 1) mod t.cfg.sources;
  if src.left <= 0 then begin
    src.flow <- zipf t;
    src.left <- Ldlp_sim.Rng.geometric t.rng ~p:(1.0 /. t.cfg.mean_train)
  end;
  src.left <- src.left - 1;
  src.flow

let stream t n = Array.init n (fun _ -> next t)
