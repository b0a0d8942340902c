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

(* The paper's Figure 6 input buffer, in messages. *)
let buffer_cap = 500

let run ~discipline ~layers ~make_payload
    ?(service = fun ~batch:_ _ -> 0.0) workload =
  let latency = Ldlp_sim.Hist.create () in
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
      ()
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
        if Engine.backlog eng ~node:0 >= buffer_cap then incr dropped
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
          Ldlp_sim.Hist.add latency (Float.max 0.0 (!now -. m.Msg.arrival)))
        !completed_this_step
    end
  done;
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
