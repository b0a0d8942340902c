module Metrics = Ldlp_obs.Metrics
module Obs = Ldlp_obs.Obs

type workload = { at : float; size : int; flow : int }

type report = {
  offered : int;
  processed : int;
  dropped : int;
  duration : float;
  throughput : float;
  latency : Ldlp_sim.Hist.t;
  stats : Engine.stats;
}

let poisson_workload ~rng ~rate ~duration ~size =
  if rate <= 0.0 then invalid_arg "Runtime.poisson_workload: bad rate";
  let rec go acc t =
    let t = t +. Ldlp_sim.Rng.exponential rng ~mean:(1.0 /. rate) in
    if t >= duration then List.rev acc
    else go ({ at = t; size; flow = 0 } :: acc) t
  in
  go [] 0.0

let run ~discipline ~layers ~make_payload ?(buffer_cap = 500)
    ?(service = fun ~batch:_ _ -> 0.0) ?metrics workload =
  let latency = Ldlp_sim.Hist.create () in
  (* Scalar refs are registered up front (find-or-create is setup-time
     work); bumping them below is gated and allocation-free. *)
  let offered_sc, dropped_sc =
    match metrics with
    | None -> (ref 0, ref 0)
    | Some m -> (Metrics.scalar m "offered", Metrics.scalar m "dropped")
  in
  let completed_this_step = ref [] in
  let handled_this_step : (int, Ldlp_buf.Mbuf.t Msg.t list) Hashtbl.t =
    Hashtbl.create 8
  in
  let complete msg = completed_this_step := msg :: !completed_this_step in
  (* Latency is sampled for messages that reach the upward sink; a layer
     that absorbs messages with [Consume] still counts as processed but
     contributes no latency sample. *)
  let eng =
    Engine.rx_chain ~discipline ~layers ~up:complete
      ~down:(fun _ -> ())
      ~on_handled:(fun i _layer msg ->
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt handled_this_step i)
        in
        Hashtbl.replace handled_this_step i (msg :: prev))
      ?metrics ()
  in
  let now = ref 0.0 in
  let dropped = ref 0 in
  let offered = List.length workload in
  let pending_arrivals = ref workload in
  let inject_due () =
    let rec go () =
      match !pending_arrivals with
      | { at; size; flow } :: rest when at <= !now ->
        pending_arrivals := rest;
        if Engine.backlog eng ~node:0 >= buffer_cap then begin
          incr dropped;
          Metrics.add_scalar dropped_sc 1
        end
        else begin
          let payload = make_payload ~size in
          Engine.inject eng ~node:0 (Msg.make ~flow ~arrival:at ~size payload)
        end;
        go ()
      | _ -> ()
    in
    go ()
  in
  let finished () = !pending_arrivals = [] && Engine.pending eng = 0 in
  while not (finished ()) do
    inject_due ();
    if Engine.pending eng = 0 then begin
      (* Idle: advance the clock to the next arrival. *)
      match !pending_arrivals with
      | [] -> ()
      | { at; _ } :: _ -> now := Float.max !now at
    end
    else begin
      Hashtbl.reset handled_this_step;
      completed_this_step := [];
      ignore (Engine.step eng);
      (* Charge service time for everything handled in this quantum; the
         per-layer batch size is how many messages that layer just ran. *)
      let cost =
        Hashtbl.fold
          (fun _ msgs acc ->
            let batch = List.length msgs in
            List.fold_left
              (fun acc m -> acc +. service ~batch m)
              acc msgs)
          handled_this_step 0.0
      in
      now := !now +. cost;
      List.iter
        (fun (m : Ldlp_buf.Mbuf.t Msg.t) ->
          let l = Float.max 0.0 (!now -. m.Msg.arrival) in
          Ldlp_sim.Hist.add latency l;
          (* The gate check lives at the call site: passing the float to
             [latency_s] boxes it, which the disabled path must not pay. *)
          match metrics with
          | Some mt when Obs.enabled () -> Metrics.latency_s mt l
          | _ -> ())
        !completed_this_step
    end
  done;
  Metrics.add_scalar offered_sc offered;
  let stats = Engine.stats eng in
  let duration = !now in
  let processed = stats.Engine.to_up + stats.Engine.consumed in
  Invariant.check
    (stats.Engine.injected + !dropped = offered)
    "Runtime.run: arrivals <> injected + dropped";
  Invariant.check
    (processed + stats.Engine.misrouted = stats.Engine.injected)
    "Runtime.run: processed + misrouted <> injected at idle";
  Invariant.check
    (Ldlp_sim.Hist.count latency <= processed)
    "Runtime.run: more latency samples than completed messages";
  {
    offered;
    processed;
    dropped = !dropped;
    duration;
    throughput = (if duration > 0.0 then float_of_int processed /. duration else 0.0);
    latency;
    stats;
  }
