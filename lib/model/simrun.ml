module Cache = Ldlp_cache
module Core = Ldlp_core
module Metrics = Ldlp_obs.Metrics
module Obs = Ldlp_obs.Obs

type discipline = Conventional | Ilp | Ldlp

let discipline_name = function
  | Conventional -> "conventional"
  | Ilp -> "ilp"
  | Ldlp -> "ldlp"

type result = {
  discipline : discipline;
  offered : int;
  processed : int;
  dropped : int;
  mean_latency : float;
  p50_latency : float;
  p99_latency : float;
  imisses_per_msg : float;
  dmisses_per_msg : float;
  mean_batch : float;
  max_batch : int;
  throughput : float;
  tx_msgs : int;
  tx_runs : int;
}

(* Payloads are just the simulated buffer address of the message data. *)
type payload = int

let engine_discipline (params : Params.t) = function
  | Conventional | Ilp -> Core.Engine.Conventional
  | Ldlp -> Core.Engine.Ldlp params.Params.batch

(* The synthetic stack's layer names, bottom-first — the shape a metric
   sheet passed to [run_into]/[run_once] must have. *)
let layer_names (params : Params.t) =
  let n =
    match params.Params.profile with
    | Some profile -> List.length profile
    | None -> params.Params.layers
  in
  List.init n (fun i -> Printf.sprintf "L%d" (i + 1))

type accum = {
  hist : Ldlp_sim.Hist.t;
  mutable offered : int;
  mutable processed : int;
  mutable dropped : int;
  mutable imisses : int;
  mutable dmisses : int;
  mutable batches : int;
  mutable total_batched : int;
  mutable max_batch : int;
  mutable sim_seconds : float;
  mutable tx_msgs : int;
  mutable tx_runs : int;
}

let fresh_accum () =
  {
    hist = Ldlp_sim.Hist.create ();
    offered = 0;
    processed = 0;
    dropped = 0;
    imisses = 0;
    dmisses = 0;
    batches = 0;
    total_batched = 0;
    max_batch = 0;
    sim_seconds = 0.0;
    tx_msgs = 0;
    tx_runs = 0;
  }

let run_into ?(direction = `Receive) ~(params : Params.t) ~discipline ~rng
    ~source ?clock_hz ?metrics ?probe acc =
  let open Params in
  let clock_hz = Option.value ~default:params.clock_hz clock_hz in
  let memsys =
    Cache.Memsys.create ~icache:params.icache ~dcache:params.dcache
      ~unified:params.unified_cache ~prefetch_discount:params.prefetch_discount
      ~clock_hz ()
  in
  let line_bytes = params.icache.Cache.Config.line_bytes in
  let layout =
    if params.packed_layout then
      Cache.Layout.sequential ~line_bytes ()
    else Cache.Layout.random ~rng ~line_bytes ()
  in
  (* Per-layer footprints: uniform from the scalar fields, or the explicit
     heterogeneous profile. *)
  let spec =
    match params.profile with
    | Some profile -> Array.of_list profile
    | None ->
      Array.make params.layers
        (params.layer_code_bytes, params.layer_data_bytes,
         params.base_cycles_per_layer)
  in
  let nlayers = Array.length spec in
  (* One charged region set per scheduler node: the receive chain and
     transmit chain each have [nlayers]; a duplex engine has both, with
     the transmit side's code/data placed independently (its handlers
     are different code with their own working set). *)
  let nnodes =
    match direction with `Duplex -> 2 * nlayers | `Receive | `Transmit -> nlayers
  in
  let node_spec = Array.init nnodes (fun i -> spec.(i mod nlayers)) in
  let code_regions =
    Array.map (fun (code, _, _) -> Cache.Layout.alloc layout code) node_spec
  in
  let data_regions =
    Array.map
      (fun (_, data, _) -> Cache.Layout.alloc layout (max 32 data))
      node_spec
  in
  (* Message buffers recycle through a pool of slots, like mbuf clusters. *)
  let slots =
    Array.init params.buffer_cap (fun _ ->
        (Cache.Layout.alloc layout 2048).Cache.Layout.base)
  in
  let next_slot = ref 0 in
  let top = nlayers - 1 in
  (* Which layer is charging right now, so the memory-system probe can tag
     its event stream (the observability differential test recomputes the
     per-layer miss counters from that stream). *)
  let current_layer = ref (-1) in
  (match probe with
  | None -> ()
  | Some f ->
    Cache.Memsys.set_probe memsys (Some (fun ev -> f ~layer:!current_layer ev)));
  (match metrics with
  | Some m when Metrics.nlayers m <> nnodes ->
    invalid_arg "Simrun.run_into: metrics sheet layer count mismatch"
  | _ -> ());
  let charge_memsys i (msg : payload Core.Msg.t) =
    let code_bytes, data_bytes, base_cycles = node_spec.(i) in
    let cr = code_regions.(i) and dr = data_regions.(i) in
    Cache.Memsys.fetch_code memsys ~addr:cr.Cache.Layout.base ~len:code_bytes;
    Cache.Memsys.read_data memsys ~addr:dr.Cache.Layout.base ~len:data_bytes;
    (* ILP integrates the data loops: the message is loaded once, at the
       bottom layer, rather than reloaded by every layer. *)
    let touch_msg = match discipline with Ilp -> i = 0 | _ -> true in
    if touch_msg && msg.Core.Msg.size > 0 then
      Cache.Memsys.read_data memsys ~addr:msg.Core.Msg.payload
        ~len:msg.Core.Msg.size;
    Cache.Memsys.execute memsys
      (base_cycles
      + int_of_float (params.cycles_per_byte *. float_of_int msg.Core.Msg.size));
    if discipline = Ldlp then
      Cache.Memsys.execute memsys params.ldlp_queue_cycles
  in
  let charge i (msg : payload Core.Msg.t) =
    current_layer := i;
    match metrics with
    | Some mt when Obs.enabled () ->
      (* [counters] returns a snapshot, so the one taken before the
         charge and the one taken after give its delta. *)
      let c0 = Cache.Memsys.counters memsys in
      charge_memsys i msg;
      let c1 = Cache.Memsys.counters memsys in
      Metrics.charge mt i
        ~exec:(c1.Cache.Memsys.exec_cycles - c0.Cache.Memsys.exec_cycles)
        ~stall:(c1.Cache.Memsys.stall_cycles - c0.Cache.Memsys.stall_cycles)
        ~imisses:(c1.Cache.Memsys.icache_misses - c0.Cache.Memsys.icache_misses)
        ~dmisses:(c1.Cache.Memsys.dcache_misses - c0.Cache.Memsys.dcache_misses)
        ~wmisses:(c1.Cache.Memsys.write_misses - c0.Cache.Memsys.write_misses)
    | _ -> charge_memsys i msg
  in
  let now = ref 0.0 in
  let completed = ref [] in
  let take_slot () =
    let slot = slots.(!next_slot) in
    next_slot := (!next_slot + 1) mod Array.length slots;
    slot
  in
  (* Messages recycle through a preallocated pool sized like the buffer
     ring: the pool is drained and refilled in lock-step with the slots,
     so the steady-state message path never constructs a message record.
     Recycling is LIFO and ids still come from the global counter, so
     runs replay identically to the allocating implementation. *)
  let msg_pool = Core.Msg.pool ~capacity:params.buffer_cap ~dummy:0 () in
  (* Under [`Duplex], the top layer answers every delivered message with a
     small reply (a TCP-ACK stand-in) that descends the transmit nodes of
     the same engine — the cross-direction traffic whose batching the
     duplex arrangement amortises. *)
  let ack_bytes = 40 in
  let layers =
    List.init nlayers (fun i ->
        let code_bytes, data_bytes, base_cycles = spec.(i) in
        let handle =
          if direction = `Duplex && i = top then
            fun (msg : payload Core.Msg.t) ->
            (* The reply draws from the same pool the arrivals recycle
               through; what remains on the heap is the two-action list
               and the [Send_down] box. *)
            [
              Core.Layer.Up;
              Core.Layer.Send_down
                (Core.Msg.acquire msg_pool ~arrival:msg.Core.Msg.arrival
                   ~size:ack_bytes (take_slot ()));
            ]
          else fun _ -> Core.Layer.up_only
        in
        Core.Layer.v ~name:(Printf.sprintf "L%d" (i + 1))
          ~fp:
            (Core.Layer.footprint ~code_bytes ~data_bytes
               ~cycles_per_msg:base_cycles
               ~cycles_per_byte:params.cycles_per_byte ())
          handle)
  in
  (* Every direction drives the same loop: an engine plus the node where
     arrivals enter it. *)
  let complete msg = completed := msg :: !completed in
  let on_handled i _ msg = charge i msg in
  let eng, entry =
    match direction with
    | `Receive ->
      ( Core.Engine.rx_chain ~discipline:(engine_discipline params discipline)
          ~layers ~up:complete ~on_handled ?metrics (),
        0 )
    | `Transmit ->
      (* Messages enter at the top (application sends) and complete when
         they reach the wire below the bottom layer; I-cache charging per
         layer is identical — the mirror image of the receive path. *)
      ( Core.Engine.tx_chain ~discipline:(engine_discipline params discipline)
          ~layers ~wire:complete ~on_handled ?metrics (),
        top )
    | `Duplex ->
      (* Both directions under one engine: arrivals enter the rx side and
         complete at the up sink (latency is still arrival-to-delivery);
         the replies the top layer generates drain through the transmit
         nodes — charged to their own regions via [on_handled] — and
         leave at the wire sink uncounted. *)
      let eng =
        Core.Engine.duplex ~discipline:(engine_discipline params discipline)
          ~layers ~up:complete
          ~wire:(fun msg -> Core.Msg.release msg_pool msg)
          ~on_handled ?metrics ()
      in
      (eng, Core.Engine.duplex_rx_entry eng)
  in
  let offered_sc, dropped_sc =
    match metrics with
    | None -> (ref 0, ref 0)
    | Some m -> (Metrics.scalar m "offered", Metrics.scalar m "dropped")
  in
  let arrivals = ref (Ldlp_traffic.Source.peek source) in
  let pull () =
    ignore (Ldlp_traffic.Source.pull source);
    arrivals := Ldlp_traffic.Source.peek source
  in
  let inject_due () =
    let continue = ref true in
    while !continue do
      match !arrivals with
      | Some p when p.Ldlp_traffic.Source.at <= !now ->
        acc.offered <- acc.offered + 1;
        Metrics.add_scalar offered_sc 1;
        if Core.Engine.backlog eng ~node:entry >= params.buffer_cap then begin
          acc.dropped <- acc.dropped + 1;
          Metrics.add_scalar dropped_sc 1
        end
        else
          Core.Engine.inject eng ~node:entry
            (Core.Msg.acquire msg_pool ~arrival:p.Ldlp_traffic.Source.at
               ~size:p.Ldlp_traffic.Source.size (take_slot ()));
        pull ()
      | _ -> continue := false
    done
  in
  let finished () = !arrivals = None && Core.Engine.pending eng = 0 in
  while not (finished ()) do
    inject_due ();
    if Core.Engine.pending eng = 0 then begin
      match !arrivals with
      | None -> ()
      | Some p -> now := Float.max !now p.Ldlp_traffic.Source.at
    end
    else begin
      let c0 = Cache.Memsys.cycles memsys in
      completed := [];
      ignore (Core.Engine.step eng);
      let dc = Cache.Memsys.cycles memsys - c0 in
      now := !now +. Cache.Memsys.seconds_of_cycles memsys dc;
      List.iter
        (fun (m : payload Core.Msg.t) ->
          acc.processed <- acc.processed + 1;
          let l = Float.max 0.0 (!now -. m.Core.Msg.arrival) in
          Ldlp_sim.Hist.add acc.hist l;
          (* Gate at the call site: passing the float to [latency_s] boxes
             it, which the disabled path must not pay. *)
          (match metrics with
          | Some mt when Obs.enabled () -> Metrics.latency_s mt l
          | _ -> ());
          Core.Msg.release msg_pool m)
        !completed
    end
  done;
  (match probe with None -> () | Some _ -> Cache.Memsys.set_probe memsys None);
  let counters = Cache.Memsys.counters memsys in
  acc.imisses <- acc.imisses + counters.Cache.Memsys.icache_misses;
  acc.dmisses <-
    acc.dmisses + counters.Cache.Memsys.dcache_misses
    + counters.Cache.Memsys.write_misses;
  let st = Core.Engine.stats eng in
  acc.batches <- acc.batches + st.Core.Engine.batches;
  acc.total_batched <- acc.total_batched + st.Core.Engine.total_batched;
  acc.max_batch <- max acc.max_batch st.Core.Engine.max_batch;
  if direction = `Duplex then begin
    acc.tx_msgs <- acc.tx_msgs + st.Core.Engine.to_down;
    acc.tx_runs <- acc.tx_runs + Core.Engine.tx_runs eng
  end;
  acc.sim_seconds <- acc.sim_seconds +. !now

let result_of ~discipline acc =
  let fper n =
    if acc.processed = 0 then 0.0
    else float_of_int n /. float_of_int acc.processed
  in
  {
    discipline;
    offered = acc.offered;
    processed = acc.processed;
    dropped = acc.dropped;
    mean_latency = Ldlp_sim.Hist.mean acc.hist;
    p50_latency = Ldlp_sim.Hist.median acc.hist;
    p99_latency = Ldlp_sim.Hist.percentile acc.hist 0.99;
    imisses_per_msg = fper acc.imisses;
    dmisses_per_msg = fper acc.dmisses;
    mean_batch =
      (if acc.batches = 0 then 0.0
       else float_of_int acc.total_batched /. float_of_int acc.batches);
    max_batch = acc.max_batch;
    throughput =
      (if acc.sim_seconds > 0.0 then
         float_of_int acc.processed /. acc.sim_seconds
       else 0.0);
    tx_msgs = acc.tx_msgs;
    tx_runs = acc.tx_runs;
  }

let run_once ?direction ~params ~discipline ~rng ~source ?clock_hz ?metrics
    ?probe () =
  let acc = fresh_accum () in
  run_into ?direction ~params ~discipline ~rng ~source ?clock_hz ?metrics
    ?probe acc;
  result_of ~discipline acc

let run_avg ?direction ~params ~discipline ~seed ~make_source ?clock_hz
    ?metrics () =
  let master = Ldlp_sim.Rng.create ~seed in
  let acc = fresh_accum () in
  for _ = 1 to params.Params.runs do
    let rng = Ldlp_sim.Rng.split master in
    let source = make_source (Ldlp_sim.Rng.split master) in
    run_into ?direction ~params ~discipline ~rng ~source ?clock_hz ?metrics acc
  done;
  result_of ~discipline acc
