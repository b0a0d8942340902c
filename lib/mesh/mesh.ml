module Msg = Ldlp_core.Msg
module Layer = Ldlp_core.Layer
module Engine = Ldlp_core.Engine
module Batch = Ldlp_core.Batch
module Plan = Ldlp_fault.Plan
module Impair = Ldlp_fault.Impair
module Sim = Ldlp_sim.Engine
module Rng = Ldlp_sim.Rng
module Hist = Ldlp_sim.Hist
module Table = Ldlp_sim.Table
module Chart = Ldlp_sim.Chart
module Uni = Ldlp_sigproto.Uni
module Ie = Ldlp_sigproto.Ie

type wiring = Conv | Ldlp | Duplex

let wiring_name = function Conv -> "conv" | Ldlp -> "ldlp" | Duplex -> "duplex"

let all_wirings = [ Conv; Ldlp; Duplex ]

type config = {
  hosts : int;
  degree : int;
  seed : int;
  broadcasts : int;
  payload_bytes : int;
  plan : Plan.t;
  link_latency : float;
  lifecycle : Plan.host array;
}

let config ?(hosts = 64) ?(degree = 4) ?(seed = 1996) ?(broadcasts = 16)
    ?(payload_bytes = 64) ?(plan = Plan.none) ?(link_latency = 1e-4)
    ?(lifecycle = [||]) () =
  Plan.validate plan;
  if hosts < 2 then invalid_arg "Mesh.config: hosts < 2";
  if degree < 1 || degree >= hosts then
    invalid_arg "Mesh.config: need 1 <= degree < hosts";
  if hosts * degree mod 2 <> 0 then
    invalid_arg "Mesh.config: hosts * degree must be even";
  if degree = 1 && hosts > 2 then
    invalid_arg "Mesh.config: degree 1 on more than 2 hosts is never connected";
  if broadcasts < 0 then invalid_arg "Mesh.config: broadcasts < 0";
  if payload_bytes < 0 then invalid_arg "Mesh.config: payload_bytes < 0";
  if link_latency <= 0.0 then invalid_arg "Mesh.config: link_latency <= 0";
  if Array.length lifecycle <> 0 && Array.length lifecycle <> hosts then
    invalid_arg "Mesh.config: lifecycle must cover all hosts (or be empty)";
  Array.iter Plan.validate_host lifecycle;
  { hosts; degree; seed; broadcasts; payload_bytes; plan; link_latency;
    lifecycle }

let chaos_plan =
  Plan.v ~drop:0.05 ~dup:0.02 ~corrupt:0.001 ~reorder:0.1 ~reorder_window:4 ()

(* Modeled CPU cost: the paper's memory system (8 KB caches, 32 B lines,
   20-cycle miss) at a 100 MHz clock.  A scheduling switch into a layer
   refetches its code working set line by line; a handler invocation pays
   its footprint's execution cycles. *)
let clock_hz = 1e8

let line_bytes = 32

let miss_cycles = 20

(* Interrupt-coalescing window between a frame's arrival at a host's NIC
   and the service quantum that drains it — identical for every wiring,
   so the wire clock stays discipline-invariant. *)
let service_delay = 25e-6

let mac_fp =
  Layer.footprint ~code_bytes:4096 ~data_bytes:256 ~cycles_per_msg:900
    ~cycles_per_byte:0.25 ()

let relay_fp = Layer.footprint ()

let[@inline] reload_seconds (fp : Layer.footprint) =
  float_of_int (fp.Layer.code_bytes / line_bytes * miss_cycles) /. clock_hz

let[@inline] exec_seconds (fp : Layer.footprint) size =
  (float_of_int fp.Layer.cycles_per_msg
  +. (fp.Layer.cycles_per_byte *. float_of_int size))
  /. clock_hz

type causes = {
  offered : int;
  fault_dropped : int;
  down_dropped : int;
  duplicated : int;
  corrupted : int;
  reordered : int;
  flushed : int;
  crashed : int;  (* wire emissions whose destination host was dead *)
  arrived : int;
  corrupt_dropped : int;
  dup_dropped : int;
  lost_in_crash : int;  (* parked frames lost with a host's volatile state *)
  delivered : int;
  sig_delivered : int;
}

let conserved c =
  c.offered + c.duplicated
  = c.arrived + c.fault_dropped + c.down_dropped + c.flushed + c.crashed
  && c.arrived
     = c.delivered + c.sig_delivered + c.dup_dropped + c.corrupt_dropped
       + c.lost_in_crash

type kind = Bcast of int | Sig of int

(* One per-link copy of a message.  [pbase] is the modeled CPU penalty the
   frame carried into the host currently processing it; [penalty] is
   [pbase] plus the service time elapsed when the frame left that host's
   stack — set at the wire exit, and turned back into [pbase] when the
   copy is injected at the next hop. *)
type frame = {
  kind : kind;
  from_host : int;  (* previous hop, -1 at origination *)
  dst : int;  (* unicast target, -1 = flood *)
  born : float;
  hops : int;
  fbytes : int;
  mutable corrupt : bool;
  mutable pbase : float;
  mutable penalty : float;
  data : bytes;
}

type hostm = {
  h_eng : frame Engine.t;
  h_rx : int;  (* the engine's frame-arrival node *)
  h_submit : now:float -> frame -> unit;
  h_parked : frame Msg.t Queue.t;
      (* Frames accepted by the NIC but not yet drained into the stack —
         the volatile state a crash wipes.  Parked at {!deliver}, drained
         at the head of every service quantum, so the drain order (and
         with it every golden) is exactly the old inject-at-delivery
         behaviour when no host ever crashes. *)
  mutable h_service_due : bool;
  mutable h_last_node : int;
}

(* The modeled CPU accumulators, updated on every handler invocation.  An
   all-float record stores its fields unboxed; a float field beside
   non-float ones would box a fresh float on every store. *)
type clock = {
  mutable elapsed : float;  (* modeled CPU time in the current quantum *)
  mutable cpu : float;
}

type net = {
  topo : Topology.t;
  cfg : config;
  sim : Sim.t;
  pool : frame Msg.pool;
  impairs : frame Impair.t array;  (* one per directed link *)
  link_dst : int array;
  flush_at : float array;  (* armed reorder-flush deadline, infinity = none *)
  mutable hosts_arr : hostm array;
  clock : clock;
  host_cpu : float array;
      (* Modeled CPU charged to each host.  Folding these in host order
         gives a shard-count-independent total: a host runs entirely on
         one shard, so the per-host value is exact, and the fold order is
         fixed — unlike [clock.cpu], whose event-order accumulation is not
         FP-associative across a shard split. *)
  mutable reloads : int;
  mutable handled : int;
  mutable arrived : int;
  mutable corrupt_dropped : int;
  mutable dup_dropped : int;
  mutable delivered : int;
  mutable sig_delivered : int;
  mutable flushed : int;
  mutable crashed : int;
  mutable lost_in_crash : int;
  alive : bool array;  (* per-host liveness under the lifecycle plan *)
  hist : Hist.t;
  seen : Bytes.t array;  (* per-host bitset over broadcast ids *)
  per_host : int array;
  per_broadcast : int array;
  mutable on_sig : int -> int -> float -> frame -> unit;
  mutable on_crash : int -> float -> unit;
  mutable on_restart : int -> float -> unit;
}

let seen_get net h b =
  Char.code (Bytes.get net.seen.(h) (b lsr 3)) land (1 lsl (b land 7)) <> 0

let seen_set net h b =
  let i = b lsr 3 in
  Bytes.set net.seen.(h) i
    (Char.chr (Char.code (Bytes.get net.seen.(h) i) lor (1 lsl (b land 7))))

let make_impair cfg li =
  let clone f = { f with corrupt = f.corrupt } in
  let corrupt f =
    f.corrupt <- true;
    f
  in
  Impair.create ~clone ~corrupt ~seed:(cfg.seed + (7919 * (li + 1))) cfg.plan

(* Wire-side plumbing.  Everything here advances only the wire clock, so
   the event timeline — and with it each link's impairment stream — is
   identical for every wiring of the same config. *)
let rec transmit net ~src f =
  let now = Sim.now net.sim in
  let adj = net.topo.Topology.adj.(src) and links = net.topo.Topology.links.(src) in
  for i = 0 to Array.length adj - 1 do
    let d = adj.(i) in
    if d <> f.from_host && (f.dst < 0 || f.dst = d) then begin
      let li = links.(i) in
      let copy = { f with from_host = src; hops = f.hops + 1; pbase = f.penalty } in
      schedule_emissions net ~now d (Impair.send net.impairs.(li) ~now copy);
      arm_flush net li
    end
  done

and schedule_emissions net ~now d = function
  | [] -> ()
  | (e : frame Impair.emission) :: rest ->
    let g = e.Impair.frame in
    Sim.at net.sim
      (now +. net.cfg.link_latency +. e.Impair.delay)
      (fun () -> deliver net d g);
    schedule_emissions net ~now d rest

and arm_flush net li =
  match Impair.next_deadline net.impairs.(li) with
  | None -> ()
  | Some dl ->
    if dl < net.flush_at.(li) then begin
      net.flush_at.(li) <- dl;
      Sim.at net.sim
        (Float.max dl (Sim.now net.sim))
        (fun () -> fire_flush net li)
    end

and fire_flush net li =
  net.flush_at.(li) <- infinity;
  let now = Sim.now net.sim in
  let ems = Impair.release_due net.impairs.(li) ~now in
  schedule_emissions net ~now net.link_dst.(li) ems;
  arm_flush net li

and deliver net d g =
  if not net.alive.(d) then
    (* The destination died with the frame on the wire: ledgered, never
       injected (the frame was never acquired from the pool). *)
    net.crashed <- net.crashed + 1
  else begin
    net.arrived <- net.arrived + 1;
    g.pbase <- g.penalty;
    let h = net.hosts_arr.(d) in
    let m = Msg.acquire net.pool ~arrival:(Sim.now net.sim) ~size:g.fbytes g in
    Queue.push m h.h_parked;
    if not h.h_service_due then begin
      h.h_service_due <- true;
      Sim.after net.sim service_delay (fun () -> service net d)
    end
  end

and drain_parked h =
  while not (Queue.is_empty h.h_parked) do
    Engine.inject h.h_eng ~node:h.h_rx (Queue.pop h.h_parked)
  done

and service net d =
  let h = net.hosts_arr.(d) in
  h.h_service_due <- false;
  h.h_last_node <- -1;
  net.clock.elapsed <- 0.0;
  drain_parked h;
  Engine.run h.h_eng;
  charge net d

and charge net d =
  net.clock.cpu <- net.clock.cpu +. net.clock.elapsed;
  net.host_cpu.(d) <- net.host_cpu.(d) +. net.clock.elapsed

(* A CPU quantum that is not triggered by frame arrival (origination,
   protocol timer): charge whatever [k] submits plus the engine drain. *)
let with_service net d k =
  let h = net.hosts_arr.(d) in
  h.h_last_node <- -1;
  net.clock.elapsed <- 0.0;
  drain_parked h;
  k ();
  Engine.run h.h_eng;
  charge net d

(* Crash: liveness off, parked frames (the NIC's volatile state) are
   ledgered and their pool slots reclaimed, the duplicate-suppression
   bitset — also volatile — is wiped.  The host's engine is empty between
   quanta, so nothing else survives to lose. *)
let crash_host net h now =
  net.alive.(h) <- false;
  let hm = net.hosts_arr.(h) in
  while not (Queue.is_empty hm.h_parked) do
    let m = Queue.pop hm.h_parked in
    net.lost_in_crash <- net.lost_in_crash + 1;
    Msg.release net.pool m
  done;
  Bytes.fill net.seen.(h) 0 (Bytes.length net.seen.(h)) '\000';
  net.on_crash h now

let restart_host net h now =
  net.alive.(h) <- true;
  net.on_restart h now

let mac_layer net =
  Layer.v ~name:"mac" ~fp:mac_fp (fun m ->
      if m.Msg.payload.corrupt then begin
        net.corrupt_dropped <- net.corrupt_dropped + 1;
        Layer.consume_only
      end
      else Layer.up_only)

let relay_layer net h =
  Layer.v ~name:"relay" ~fp:relay_fp (fun m ->
      let f = m.Msg.payload in
      match f.kind with
      | Sig _ -> Layer.up_only
      | Bcast b ->
        if seen_get net h b then begin
          net.dup_dropped <- net.dup_dropped + 1;
          Layer.consume_only
        end
        else begin
          seen_set net h b;
          if net.cfg.degree > 1 then begin
            (* Relay copy continues in the same service quantum, so it
               inherits the penalty base the original carried in. *)
            let copy = { f with corrupt = false } in
            let m2 =
              Msg.acquire net.pool ~arrival:m.Msg.arrival ~size:m.Msg.size copy
            in
            [ Layer.Send_down m2; Layer.Up ]
          end
          else Layer.up_only
        end)

let app_sink net h m =
  let f = m.Msg.payload in
  let now = Sim.now net.sim in
  (match f.kind with
  | Bcast b ->
    net.delivered <- net.delivered + 1;
    net.per_host.(h) <- net.per_host.(h) + 1;
    net.per_broadcast.(b) <- net.per_broadcast.(b) + 1;
    Hist.add net.hist (now -. f.born +. f.pbase +. net.clock.elapsed)
  | Sig pid ->
    net.sig_delivered <- net.sig_delivered + 1;
    net.on_sig pid h now f);
  Msg.release net.pool m

let on_handled net h node (layer : frame Layer.t) m =
  let hh = net.hosts_arr.(h) in
  if node <> hh.h_last_node then begin
    hh.h_last_node <- node;
    net.reloads <- net.reloads + 1;
    net.clock.elapsed <- net.clock.elapsed +. reload_seconds layer.Layer.fp
  end;
  net.handled <- net.handled + 1;
  net.clock.elapsed <- net.clock.elapsed +. exec_seconds layer.Layer.fp m.Msg.size

(* The classic wirings transmit per message: every wire-bound message
   traverses relay and mac transmit code afresh. *)
let classic_tx_charge net size =
  net.reloads <- net.reloads + 2;
  net.handled <- net.handled + 2;
  net.clock.elapsed <-
    net.clock.elapsed +. reload_seconds relay_fp +. exec_seconds relay_fp size
    +. reload_seconds mac_fp +. exec_seconds mac_fp size

let wire_exit net src m =
  let f = m.Msg.payload in
  f.penalty <- f.pbase +. net.clock.elapsed;
  Msg.release net.pool m;
  transmit net ~src f

let make_host net wiring h =
  let layers = [ mac_layer net; relay_layer net h ] in
  let on_handled = on_handled net h in
  let on_consume m = Msg.release net.pool m in
  let up m = app_sink net h m in
  match wiring with
  | Conv | Ldlp ->
    let discipline =
      match wiring with
      | Conv -> Engine.Conventional
      | _ -> Engine.Ldlp Batch.paper_default
    in
    let down m =
      classic_tx_charge net m.Msg.size;
      wire_exit net h m
    in
    {
      h_eng = Engine.rx_chain ~discipline ~layers ~up ~down ~on_handled ~on_consume ();
      h_rx = 0;
      h_submit =
        (fun ~now:_ f ->
          classic_tx_charge net f.fbytes;
          f.penalty <- f.pbase +. net.clock.elapsed;
          transmit net ~src:h f);
      h_parked = Queue.create ();
      h_service_due = false;
      h_last_node = -1;
    }
  | Duplex ->
    let e =
      Engine.duplex
        ~discipline:(Engine.Ldlp Batch.paper_default)
        ~layers ~up
        ~wire:(fun m -> wire_exit net h m)
        ~on_handled ~on_consume ()
    in
    let tx = Engine.duplex_tx_entry e in
    {
      h_eng = e;
      h_rx = Engine.duplex_rx_entry e;
      h_submit =
        (fun ~now f ->
          let m = Msg.acquire net.pool ~arrival:now ~size:f.fbytes f in
          Engine.inject e ~node:tx m);
      h_parked = Queue.create ();
      h_service_due = false;
      h_last_node = -1;
    }

let generate_topology cfg =
  Topology.generate ~hosts:cfg.hosts ~degree:cfg.degree ~seed:cfg.seed

let make_net ~wiring ~topo cfg =
  let nl = 2 * Topology.edge_count topo in
  let link_dst = Array.make nl 0 in
  Array.iteri
    (fun p (u, v) ->
      link_dst.(2 * p) <- v;
      link_dst.((2 * p) + 1) <- u)
    topo.Topology.edges;
  let net =
    {
      topo;
      cfg;
      sim = Sim.create ();
      pool = Msg.pool ();
      impairs = Array.init nl (fun li -> make_impair cfg li);
      link_dst;
      flush_at = Array.make nl infinity;
      hosts_arr = [||];
      clock = { elapsed = 0.0; cpu = 0.0 };
      host_cpu = Array.make cfg.hosts 0.0;
      reloads = 0;
      handled = 0;
      arrived = 0;
      corrupt_dropped = 0;
      dup_dropped = 0;
      delivered = 0;
      sig_delivered = 0;
      flushed = 0;
      crashed = 0;
      lost_in_crash = 0;
      alive = Array.make cfg.hosts true;
      hist = Hist.create ();
      seen =
        Array.init cfg.hosts (fun _ ->
            Bytes.make (max 1 ((cfg.broadcasts + 7) / 8)) '\000');
      per_host = Array.make cfg.hosts 0;
      per_broadcast = Array.make (max 1 cfg.broadcasts) 0;
      on_sig = (fun _ _ _ _ -> ());
      on_crash = (fun _ _ -> ());
      on_restart = (fun _ _ -> ());
    }
  in
  net.hosts_arr <- Array.init cfg.hosts (fun h -> make_host net wiring h);
  (* Lifecycle events are armed up front, before any traffic, so the
     crash/restart timeline is identical on every shard and wiring. *)
  Array.iteri
    (fun h lp ->
      List.iter
        (fun (a, b) ->
          Sim.at net.sim a (fun () -> crash_host net h a);
          Sim.at net.sim b (fun () -> restart_host net h b))
        lp.Plan.crash)
    cfg.lifecycle;
  net

let teardown net =
  Array.iter
    (fun imp -> net.flushed <- net.flushed + List.length (Impair.flush imp))
    net.impairs

let collect_causes net =
  let off = ref 0
  and drp = ref 0
  and dwn = ref 0
  and dup = ref 0
  and cor = ref 0
  and reo = ref 0 in
  Array.iter
    (fun imp ->
      let s = Impair.stats imp in
      off := !off + s.Impair.offered;
      drp := !drp + s.Impair.dropped;
      dwn := !dwn + s.Impair.down_dropped;
      dup := !dup + s.Impair.duplicated;
      cor := !cor + s.Impair.corrupted;
      reo := !reo + s.Impair.reordered)
    net.impairs;
  {
    offered = !off;
    fault_dropped = !drp;
    down_dropped = !dwn;
    duplicated = !dup;
    corrupted = !cor;
    reordered = !reo;
    flushed = net.flushed;
    arrived = net.arrived;
    corrupt_dropped = net.corrupt_dropped;
    dup_dropped = net.dup_dropped;
    delivered = net.delivered;
    sig_delivered = net.sig_delivered;
    crashed = net.crashed;
    lost_in_crash = net.lost_in_crash;
  }

let batch_mean net =
  let b = ref 0 and t = ref 0 in
  Array.iter
    (fun h ->
      let s = Engine.stats h.h_eng in
      b := !b + s.Engine.batches;
      t := !t + s.Engine.total_batched)
    net.hosts_arr;
  if !b = 0 then 0.0 else float_of_int !t /. float_of_int !b

type spread = {
  s_wiring : wiring;
  s_config : config;
  ecc0 : int;
  reach : int;
  reach_full : int;
  s_causes : causes;
  s_conserved : bool;
  leak_free : bool;
  latency : Hist.t;
  per_host : int array;
  per_broadcast : int array;
  handled : int;
  reloads : int;
  mean_batch : float;
  cpu_seconds : float;
  wire_seconds : float;
}

let run_spread ~wiring cfg =
  let net = make_net ~wiring ~topo:(generate_topology cfg) cfg in
  let rng = Rng.create ~seed:(cfg.seed lxor 0x6d657368) in
  for b = 0 to cfg.broadcasts - 1 do
    let origin = Rng.int rng cfg.hosts in
    let t = (float_of_int b *. 2e-5) +. Rng.float rng 1e-5 in
    Sim.at net.sim t (fun () ->
      if net.alive.(origin) then begin
        seen_set net origin b;
        with_service net origin (fun () ->
            let f =
              {
                kind = Bcast b;
                from_host = -1;
                dst = -1;
                born = t;
                hops = 0;
                fbytes = cfg.payload_bytes;
                corrupt = false;
                pbase = 0.0;
                penalty = 0.0;
                data = Bytes.empty;
              }
            in
            net.hosts_arr.(origin).h_submit ~now:t f)
      end)
  done;
  Sim.run net.sim;
  teardown net;
  let causes = collect_causes net in
  let pstats = Msg.pool_stats net.pool in
  let pb = Array.sub net.per_broadcast 0 cfg.broadcasts in
  {
    s_wiring = wiring;
    s_config = cfg;
    ecc0 = Topology.eccentricity net.topo 0;
    reach = net.delivered;
    reach_full =
      Array.fold_left
        (fun acc n -> if n = cfg.hosts - 1 then acc + 1 else acc)
        0 pb;
    s_causes = causes;
    s_conserved = conserved causes;
    leak_free = pstats.Msg.p_outstanding = 0;
    latency = net.hist;
    per_host = net.per_host;
    per_broadcast = pb;
    handled = net.handled;
    reloads = net.reloads;
    mean_batch = batch_mean net;
    cpu_seconds = net.clock.cpu;
    wire_seconds = Sim.now net.sim;
  }

let compare_spread ?domains cfg =
  Ldlp_par.Pool.map ?domains (fun w -> run_spread ~wiring:w cfg) all_wirings

(* Q.93B call storm: Uni endpoints on adjacent host pairs, every SSCOP
   frame traveling through both hosts' engines and the impaired link like
   any other mesh traffic.  Side A originates, B answers; A hangs up as
   soon as the call connects — one setup/teardown pair. *)

type side = A | B

type endpoint = {
  mutable uni : Uni.t;
      (* Replaced wholesale when either host of the pair crashes: the
         crashed side loses its volatile signalling state, and the
         survivor's SSCOP core holds sequence numbers the restarted peer
         no longer shares — the only way back to Ready is a fresh
         connection on both ends. *)
  pair_id : int;
  e_side : side;
  e_host : int;
  e_peer : int;
  mutable tick_at : float;  (* armed timer event, infinity = none *)
  mutable stop_ticks : bool;
}

type pairst = {
  ea : endpoint;
  eb : endpoint;
  mutable todo : int;
  mutable next_ref : int;
  mutable completed : int;
  mutable last_done : float;
  (* Recovery-mode state (untouched on the legacy path). *)
  mutable inflight : int;  (* outstanding attempt's call_ref, 0 = none *)
  mutable attempts : int;  (* failures charged to the current logical call *)
  mutable abandoned : int;
  mutable retried : int;
  mutable deferred : int;
  mutable orig_armed : bool;
  mutable relink_armed : bool;
  mutable outage_from : float;  (* first failure of the ongoing outage *)
  mutable ttr : float list;  (* reversed time-to-recover samples *)
  p_rng : Rng.t;  (* private backoff-jitter stream *)
}

(* Deterministic retry/backoff + admission-control parameters.  All
   decisions depend only on wire-clock events and per-pair private RNG
   streams, so the retry timeline is identical across wirings and shard
   counts. *)
type recovery = {
  attempt_timeout : float;  (* give up on one attempt after this long *)
  backoff_base : float;  (* first retry delay; doubles per failure *)
  backoff_max : float;  (* exponential backoff clamp *)
  backoff_jitter : float;  (* uniform extra delay in [0, jitter) *)
  retry_budget : int;  (* failures tolerated before abandoning the call *)
  admit_limit : int;  (* per-host outstanding-attempt cap for new setups *)
  admit_delay : float;  (* re-try a refused admission after this long *)
}

let default_recovery =
  {
    attempt_timeout = 0.01;
    backoff_base = 0.002;
    backoff_max = 0.05;
    backoff_jitter = 0.001;
    retry_budget = 6;
    admit_limit = 2;
    admit_delay = 0.002;
  }

type storm = {
  t_wiring : wiring;
  pairs : int;
  calls_requested : int;
  calls_completed : int;
  calls_failed : int;
  calls_abandoned : int;
  calls_retried : int;
  setups_deferred : int;
  t_causes : causes;
  t_conserved : bool;
  t_leak_free : bool;
  storm_wire_seconds : float;
  storm_cpu_seconds : float;
  pair_done : int array;  (* per canonical pair: calls completed *)
  pair_abandoned : int array;  (* per canonical pair: calls abandoned *)
  ttr_samples : float list array;
      (* per canonical pair, completion order: wire seconds from the
         first failure of an outage to the next completed call *)
}

let goal_pairs_per_sec = 10_000.0

let storm_pair_count ~topo ?pairs cfg =
  let ne = Topology.edge_count topo in
  match pairs with
  | Some p -> max 1 (min p ne)
  | None -> max 1 (min (cfg.hosts / 8) ne)

(* [sel] filters which of the canonical [np] pairs this run actually
   drives; unselected pairs exist but never link up, never tick and are
   excluded from the request count.  Because a Sig frame travels only
   its own pair's directed links (each with an independent seeded
   impairment stream), and pairs interact solely through shared hosts
   (service-quantum co-batching), a run over any host-disjoint selection
   is byte-identical to that selection's slice of the full storm — the
   fact {!run_storm_sharded} exploits. *)
(* Returns the storm plus the per-host modeled-CPU vector the sharded
   merge needs for an FP-exact total. *)
let run_storm_core ~wiring ~topo ~sel ?recovery ?pairs ?(calls_per_pair = 4) cfg
    =
  (* The retry engine turns on with an explicit policy or whenever hosts
     can die; the legacy driver below is untouched otherwise, so every
     pre-crash golden stays byte-identical. *)
  let rec_on = recovery <> None || Array.length cfg.lifecycle > 0 in
  let rc = Option.value recovery ~default:default_recovery in
  let net = make_net ~wiring ~topo cfg in
  let ne = Topology.edge_count net.topo in
  let np = storm_pair_count ~topo:net.topo ?pairs cfg in
  let prs =
    Array.init np (fun k ->
        let u, v = net.topo.Topology.edges.(k * ne / np) in
        let mk e_side e_host e_peer =
          {
            uni = Uni.create ();
            pair_id = k;
            e_side;
            e_host;
            e_peer;
            tick_at = infinity;
            stop_ticks = false;
          }
        in
        {
          ea = mk A u v;
          eb = mk B v u;
          todo = calls_per_pair;
          next_ref = 1;
          completed = 0;
          last_done = 0.0;
          inflight = 0;
          attempts = 0;
          abandoned = 0;
          retried = 0;
          deferred = 0;
          orig_armed = false;
          relink_armed = false;
          outage_from = infinity;
          ttr = [];
          p_rng = Rng.create ~seed:(cfg.seed lxor 0x72657472 + (8191 * (k + 1)));
        })
  in
  (* Admission control: outstanding setup attempts per host.  New calls
     are refused (and re-tried after [admit_delay]) when either endpoint
     host is at its cap; retries of in-progress calls bypass the gate, so
     overload sheds fresh load before abandoning work already under way. *)
  let adm = Array.make cfg.hosts 0 in
  let submit_sig ep ~now data =
    let f =
      {
        kind = Sig ep.pair_id;
        from_host = -1;
        dst = ep.e_peer;
        born = now;
        hops = 0;
        fbytes = Bytes.length data;
        corrupt = false;
        pbase = 0.0;
        penalty = 0.0;
        data;
      }
    in
    net.hosts_arr.(ep.e_host).h_submit ~now f
  in
  let finish pr =
    pr.ea.stop_ticks <- true;
    pr.eb.stop_ticks <- true
  in
  let pair_alive pr = net.alive.(pr.ea.e_host) && net.alive.(pr.eb.e_host) in
  let rec kick pr now =
    if pr.todo > 0 then begin
      if Uni.link_ready pr.ea.uni then begin
        pr.todo <- pr.todo - 1;
        let cr = pr.next_ref in
        pr.next_ref <- pr.next_ref + 1;
        match Uni.originate pr.ea.uni ~now ~call_ref:cr [ Ie.called_party "mesh" ] with
        | Ok o -> handle pr pr.ea now o
        | Error _ -> kick pr now
      end
    end
    else if Uni.active_calls pr.ea.uni = 0 then finish pr

  (* -- recovery-mode driver -------------------------------------------
     One logical call at a time per pair; each attempt is supervised by
     an [attempt_timeout] event, failures back off exponentially with
     seeded per-pair jitter, and after [retry_budget] failures the call
     is explicitly abandoned.  Originations run in their own events at
     pair-unique times (a 1 ns pair offset), so admission decisions are
     serialized identically under every wiring and shard count. *)
  and rkick pr _now =
    (* [attempts > 0] is a consumed call mid-retry (its origination was
       swallowed by a dark link): still outstanding work, not done. *)
    if pr.todo > 0 || pr.attempts > 0 then begin
      if pr.inflight = 0 then arm_orig pr 0.0
    end
    else if pr.inflight = 0 && not pr.orig_armed then finish pr

  and arm_orig pr delay =
    if not pr.orig_armed then begin
      pr.orig_armed <- true;
      let t =
        Sim.now net.sim +. delay
        +. (1e-9 *. float_of_int (pr.ea.pair_id + 1))
      in
      Sim.at net.sim t (fun () -> fire_orig pr)
    end

  and fire_orig pr =
    pr.orig_armed <- false;
    let now = Sim.now net.sim in
    if
      (not pr.ea.stop_ticks)
      && pr.inflight = 0
      && (pr.attempts > 0 || pr.todo > 0)
    then begin
      if (not (pair_alive pr)) || not (Uni.link_ready pr.ea.uni) then
        (* Dark: the restart/relink path re-kicks once the link is back. *)
        ()
      else if
        pr.attempts = 0
        && (adm.(pr.ea.e_host) >= rc.admit_limit
           || adm.(pr.eb.e_host) >= rc.admit_limit)
      then begin
        pr.deferred <- pr.deferred + 1;
        arm_orig pr rc.admit_delay
      end
      else begin
        if pr.attempts = 0 then pr.todo <- pr.todo - 1;
        with_service net pr.ea.e_host (fun () -> originate_attempt pr now)
      end
    end

  and originate_attempt pr now =
    let cr = pr.next_ref in
    pr.next_ref <- cr + 1;
    pr.inflight <- cr;
    adm.(pr.ea.e_host) <- adm.(pr.ea.e_host) + 1;
    adm.(pr.eb.e_host) <- adm.(pr.eb.e_host) + 1;
    match Uni.originate pr.ea.uni ~now ~call_ref:cr [ Ie.called_party "mesh" ] with
    | Ok o ->
      Sim.at net.sim
        (now +. rc.attempt_timeout)
        (fun () ->
          if pr.inflight = cr then attempt_fail pr (Sim.now net.sim));
      handle pr pr.ea now o
    | Error _ -> attempt_fail pr now

  and end_attempt pr =
    let cr = pr.inflight in
    pr.inflight <- 0;
    adm.(pr.ea.e_host) <- adm.(pr.ea.e_host) - 1;
    adm.(pr.eb.e_host) <- adm.(pr.eb.e_host) - 1;
    cr

  and attempt_fail pr now =
    if pr.inflight <> 0 then begin
      let cr = end_attempt pr in
      (* Give up on this attempt at both ends: pure state removal, no
         RELEASE handshake — the wire may still carry its frames, and
         any stray reply steps a fresh Null call into one STATUS, which
         the peer absorbs silently. *)
      ignore (Uni.abort pr.ea.uni ~call_ref:cr);
      ignore (Uni.abort pr.eb.uni ~call_ref:cr);
      fail_step pr now
    end

  and fail_step pr now =
    if pr.outage_from = infinity then pr.outage_from <- now;
    if pr.attempts >= rc.retry_budget then begin
      pr.attempts <- 0;
      pr.abandoned <- pr.abandoned + 1;
      rkick pr now
    end
    else begin
      pr.attempts <- pr.attempts + 1;
      pr.retried <- pr.retried + 1;
      let back =
        Float.min rc.backoff_max
          (rc.backoff_base *. (2.0 ** float_of_int (pr.attempts - 1)))
      in
      arm_orig pr (back +. Rng.float pr.p_rng rc.backoff_jitter)
    end

  and complete pr now =
    ignore (end_attempt pr);
    pr.attempts <- 0;
    pr.completed <- pr.completed + 1;
    pr.last_done <- now;
    if pr.outage_from < infinity then begin
      pr.ttr <- (now -. pr.outage_from) :: pr.ttr;
      pr.outage_from <- infinity
    end;
    rkick pr now

  and arm_relink pr =
    if not pr.relink_armed then begin
      pr.relink_armed <- true;
      let t =
        Sim.now net.sim +. rc.backoff_base
        +. (1e-9 *. float_of_int (pr.ea.pair_id + 1))
      in
      Sim.at net.sim t (fun () -> fire_relink pr)
    end

  and fire_relink pr =
    pr.relink_armed <- false;
    if (not pr.ea.stop_ticks) && pair_alive pr then begin
      if not (Uni.link_ready pr.ea.uni) then begin
        let now = Sim.now net.sim in
        with_service net pr.ea.e_host (fun () ->
            handle pr pr.ea now (Uni.link_up pr.ea.uni ~now))
      end
    end
    (* else: dead pair — the restart hook relinks once both sides live *)

  and handle pr ep now (o : Uni.outcome) =
    List.iter (fun data -> submit_sig ep ~now data) o.Uni.to_wire;
    List.iter
      (fun ev ->
        match ev with
        | Uni.Link_up ->
          if ep.e_side = A then if rec_on then rkick pr now else kick pr now
        | Uni.Link_down _ ->
          if ep.e_side = A then
            if rec_on then begin
              attempt_fail pr now;
              arm_relink pr
            end
            else finish pr
        | Uni.Call_offered (cr, _) ->
          if ep.e_side = B then begin
            match Uni.accept ep.uni ~now ~call_ref:cr with
            | Ok o2 -> handle pr ep now o2
            | Error `No_call -> ()
          end
        | Uni.Call_connected cr ->
          if ep.e_side = A then begin
            match Uni.hangup ep.uni ~now ~call_ref:cr with
            | Ok o2 -> handle pr ep now o2
            | Error `No_call -> ()
          end
        | Uni.Call_released cr ->
          if ep.e_side = A then
            if rec_on then begin
              if cr = pr.inflight then complete pr now
            end
            else begin
              pr.completed <- pr.completed + 1;
              pr.last_done <- now;
              kick pr now
            end
        | Uni.Call_failed (cr, _) ->
          if ep.e_side = A then
            if rec_on then begin
              if cr = pr.inflight then attempt_fail pr now
            end
            else kick pr now)
      o.Uni.events;
    arm_tick pr ep

  and arm_tick pr ep =
    if not ep.stop_ticks then
      match Uni.next_deadline ep.uni with
      | None -> ()
      | Some d ->
        if d < ep.tick_at -. 1e-9 then begin
          ep.tick_at <- d;
          Sim.at net.sim
            (Float.max d (Sim.now net.sim))
            (fun () -> fire_tick pr ep)
        end

  and fire_tick pr ep =
    ep.tick_at <- infinity;
    if not ep.stop_ticks then begin
      with_service net ep.e_host (fun () ->
          let now = Sim.now net.sim in
          match Uni.next_deadline ep.uni with
          | Some d when d <= now +. 1e-9 -> handle pr ep now (Uni.tick ep.uni ~now)
          | _ -> ());
      arm_tick pr ep
    end
  in
  net.on_sig <-
    (fun pid h now f ->
      let pr = prs.(pid) in
      let ep = if pr.ea.e_host = h then pr.ea else pr.eb in
      handle pr ep now (Uni.on_wire ep.uni ~now f.data));
  if rec_on then begin
    (* A crash wipes the signalling state on the dead host; the survivor's
       SSCOP core holds sequence state the restarted peer no longer
       shares, so both endpoints of every affected pair start over.  The
       outstanding attempt (if any) fails immediately — its frames on the
       wire are already ledgered as [crashed]/[lost_in_crash]. *)
    net.on_crash <-
      (fun h now ->
        Array.iter
          (fun pr ->
            if
              sel pr.ea.pair_id
              && (pr.ea.e_host = h || pr.eb.e_host = h)
              && not pr.ea.stop_ticks
            then begin
              pr.ea.uni <- Uni.create ();
              pr.eb.uni <- Uni.create ();
              if pr.inflight <> 0 then attempt_fail pr now
              else if pr.outage_from = infinity then pr.outage_from <- now
            end)
          prs);
    net.on_restart <-
      (fun h now ->
        Array.iter
          (fun pr ->
            if
              sel pr.ea.pair_id
              && (pr.ea.e_host = h || pr.eb.e_host = h)
              && (not pr.ea.stop_ticks)
              && pair_alive pr
              && not (Uni.link_ready pr.ea.uni)
            then
              with_service net pr.ea.e_host (fun () ->
                  handle pr pr.ea now (Uni.link_up pr.ea.uni ~now)))
          prs)
  end;
  Array.iteri
    (fun k pr ->
      if sel k then
        let t = float_of_int k *. 1e-4 in
        Sim.at net.sim t (fun () ->
            if rec_on && not (pair_alive pr) then
              (* Born dark: the restart hook brings the pair up. *)
              pr.outage_from <- t
            else
              with_service net pr.ea.e_host (fun () ->
                  handle pr pr.ea t (Uni.link_up pr.ea.uni ~now:t))))
    prs;
  (* The horizon is a backstop only: an intact storm quiesces in wire
     milliseconds, and even a fully starved pair gives up (T303 twice,
     then T308 twice) well inside it. *)
  Sim.run ~until:600.0 net.sim;
  teardown net;
  let causes = collect_causes net in
  let pstats = Msg.pool_stats net.pool in
  let completed = Array.fold_left (fun a pr -> a + pr.completed) 0 prs in
  let selected = ref 0 in
  for k = 0 to np - 1 do
    if sel k then incr selected
  done;
  let requested = !selected * calls_per_pair in
  let sum f = Array.fold_left (fun a pr -> a + f pr) 0 prs in
  {
    t_wiring = wiring;
    pairs = !selected;
    calls_requested = requested;
    calls_completed = completed;
    calls_failed = requested - completed;
    calls_abandoned = sum (fun pr -> pr.abandoned);
    calls_retried = sum (fun pr -> pr.retried);
    setups_deferred = sum (fun pr -> pr.deferred);
    t_causes = causes;
    t_conserved = conserved causes;
    t_leak_free = pstats.Msg.p_outstanding = 0;
    storm_wire_seconds =
      Array.fold_left (fun a pr -> Float.max a pr.last_done) 0.0 prs;
    storm_cpu_seconds = Array.fold_left ( +. ) 0.0 net.host_cpu;
    pair_done = Array.map (fun pr -> pr.completed) prs;
    pair_abandoned = Array.map (fun pr -> pr.abandoned) prs;
    ttr_samples = Array.map (fun pr -> List.rev pr.ttr) prs;
  },
  net.host_cpu

let run_storm ~wiring ?recovery ?pairs ?calls_per_pair cfg =
  fst
    (run_storm_core ~wiring ~topo:(generate_topology cfg)
       ~sel:(fun _ -> true)
       ?recovery ?pairs ?calls_per_pair cfg)

let compare_storm ?domains ?recovery ?pairs ?calls_per_pair cfg =
  Ldlp_par.Pool.map ?domains
    (fun w -> run_storm ~wiring:w ?recovery ?pairs ?calls_per_pair cfg)
    all_wirings

(* ---------- sharded storm ---------- *)

type storm_sharded = {
  ss_storm : storm;
  ss_shards : int;
  ss_components : int;
  ss_cpu_per_shard : float array;
}

(* Union-find over pair ids, united when two pairs share a host. *)
let storm_components ~topo ~np =
  let parent = Array.init np Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(max ri rj) <- min ri rj
  in
  let ne = Topology.edge_count topo in
  let by_host = Hashtbl.create 64 in
  for k = 0 to np - 1 do
    let u, v = topo.Topology.edges.(k * ne / np) in
    List.iter
      (fun h ->
        match Hashtbl.find_opt by_host h with
        | Some k0 -> union k0 k
        | None -> Hashtbl.add by_host h k)
      [ u; v ]
  done;
  (* Components in min-pair-id order, so the shard assignment is a pure
     function of the topology. *)
  let roots = Hashtbl.create 16 in
  for k = 0 to np - 1 do
    let r = find k in
    if not (Hashtbl.mem roots r) then Hashtbl.add roots r (Hashtbl.length roots)
  done;
  let comp_of = Array.init np (fun k -> Hashtbl.find roots (find k)) in
  (comp_of, Hashtbl.length roots)

let merge_causes a b =
  {
    offered = a.offered + b.offered;
    fault_dropped = a.fault_dropped + b.fault_dropped;
    down_dropped = a.down_dropped + b.down_dropped;
    duplicated = a.duplicated + b.duplicated;
    corrupted = a.corrupted + b.corrupted;
    reordered = a.reordered + b.reordered;
    flushed = a.flushed + b.flushed;
    arrived = a.arrived + b.arrived;
    corrupt_dropped = a.corrupt_dropped + b.corrupt_dropped;
    dup_dropped = a.dup_dropped + b.dup_dropped;
    delivered = a.delivered + b.delivered;
    sig_delivered = a.sig_delivered + b.sig_delivered;
    crashed = a.crashed + b.crashed;
    lost_in_crash = a.lost_in_crash + b.lost_in_crash;
  }

let run_storm_sharded ~wiring ~shards ?recovery ?pairs ?calls_per_pair cfg =
  if shards < 1 then invalid_arg "Mesh.run_storm_sharded: shards < 1";
  (* Generated once: every shard reads the same immutable topology. *)
  let topo = generate_topology cfg in
  let np = storm_pair_count ~topo ?pairs cfg in
  let comp_of, ncomps = storm_components ~topo ~np in
  (* Whole components go to one shard: two pairs sharing a host co-batch
     service quanta and must stay together; host-disjoint components are
     independent down to the per-link impairment streams.  Crash events
     fire on every shard, but only touch counters through a shard's own
     traffic and selected pairs, so the merge below stays exact. *)
  let shard_of_pair k = comp_of.(k) * shards / ncomps in
  let parts =
    Ldlp_par.Pool.map_array ~domains:shards
      (fun s ->
        run_storm_core ~wiring ~topo
          ~sel:(fun k -> shard_of_pair k = s)
          ?recovery ?pairs ?calls_per_pair cfg)
      (Array.init shards Fun.id)
  in
  let storms = Array.map fst parts in
  (* A host's pairs all live on one shard; every other shard charged it
     exactly 0.0, so the elementwise sum reproduces the full run's
     per-host value and the host-order fold its exact total. *)
  let host_cpu = Array.make cfg.hosts 0.0 in
  Array.iter
    (fun (_, hc) ->
      Array.iteri (fun h c -> host_cpu.(h) <- host_cpu.(h) +. c) hc)
    parts;
  let merged =
    Array.fold_left
      (fun acc st ->
        {
          t_wiring = wiring;
          pairs = acc.pairs + st.pairs;
          calls_requested = acc.calls_requested + st.calls_requested;
          calls_completed = acc.calls_completed + st.calls_completed;
          calls_failed = acc.calls_failed + st.calls_failed;
          calls_abandoned = acc.calls_abandoned + st.calls_abandoned;
          calls_retried = acc.calls_retried + st.calls_retried;
          setups_deferred = acc.setups_deferred + st.setups_deferred;
          t_causes = merge_causes acc.t_causes st.t_causes;
          t_conserved = true;
          t_leak_free = acc.t_leak_free && st.t_leak_free;
          storm_wire_seconds =
            Float.max acc.storm_wire_seconds st.storm_wire_seconds;
          storm_cpu_seconds = acc.storm_cpu_seconds +. st.storm_cpu_seconds;
          (* Pair-indexed state is shard-disjoint: every unselected pair
             contributed a zero / empty cell, so elementwise merge equals
             the single-domain run exactly. *)
          pair_done =
            Array.init np (fun i -> acc.pair_done.(i) + st.pair_done.(i));
          pair_abandoned =
            Array.init np (fun i ->
                acc.pair_abandoned.(i) + st.pair_abandoned.(i));
          ttr_samples =
            Array.init np (fun i -> acc.ttr_samples.(i) @ st.ttr_samples.(i));
        })
      {
        t_wiring = wiring;
        pairs = 0;
        calls_requested = 0;
        calls_completed = 0;
        calls_failed = 0;
        calls_abandoned = 0;
        calls_retried = 0;
        setups_deferred = 0;
        t_causes =
          {
            offered = 0;
            fault_dropped = 0;
            down_dropped = 0;
            duplicated = 0;
            corrupted = 0;
            reordered = 0;
            flushed = 0;
            arrived = 0;
            corrupt_dropped = 0;
            dup_dropped = 0;
            delivered = 0;
            sig_delivered = 0;
            crashed = 0;
            lost_in_crash = 0;
          };
        t_conserved = true;
        t_leak_free = true;
        storm_wire_seconds = 0.0;
        storm_cpu_seconds = 0.0;
        pair_done = Array.make np 0;
        pair_abandoned = Array.make np 0;
        ttr_samples = Array.make np [];
      }
      storms
  in
  let merged =
    {
      merged with
      t_conserved = conserved merged.t_causes;
      storm_cpu_seconds = Array.fold_left ( +. ) 0.0 host_cpu;
    }
  in
  {
    ss_storm = merged;
    ss_shards = shards;
    ss_components = ncomps;
    ss_cpu_per_shard = Array.map (fun st -> st.storm_cpu_seconds) storms;
  }

let storm_wire_rate t =
  if t.storm_wire_seconds <= 0.0 then 0.0
  else float_of_int t.calls_completed /. t.storm_wire_seconds

let storm_cpu_us_per_pair t =
  if t.calls_completed = 0 then 0.0
  else t.storm_cpu_seconds *. 1e6 /. float_of_int t.calls_completed

let storm_cpu_rate t =
  if t.storm_cpu_seconds <= 0.0 then 0.0
  else float_of_int t.calls_completed /. t.storm_cpu_seconds

(* Goodput under crash: completed setups per wire second — the same
   clock as {!storm_wire_rate}, kept as its own name so recovery tables
   read naturally. *)
let storm_goodput = storm_wire_rate

let storm_retry_amplification t =
  if t.calls_requested = 0 then 1.0
  else
    1.0 +. (float_of_int t.calls_retried /. float_of_int t.calls_requested)

let storm_ttr_sorted t =
  let all = Array.fold_left (fun acc l -> List.rev_append l acc) [] t.ttr_samples in
  List.sort compare all

let ttr_percentile sorted q =
  match sorted with
  | [] -> 0.0
  | l ->
    let n = List.length l in
    let i = Float.to_int (Float.of_int (n - 1) *. q) in
    List.nth l (max 0 (min (n - 1) i))

(* Every offered call accounted: delivered or explicitly abandoned,
   nothing hanging — the recovery oracle's eventual-completion check. *)
let storm_complete t =
  t.calls_completed + t.calls_abandoned = t.calls_requested

(* Rendering: everything below is byte-deterministic (fixed formats, no
   wall clock, no hashing) — the golden snapshot diffs it verbatim. *)

let latency_percentiles s =
  [
    ("p10", Hist.percentile s.latency 0.10);
    ("p25", Hist.percentile s.latency 0.25);
    ("p50", Hist.percentile s.latency 0.50);
    ("p75", Hist.percentile s.latency 0.75);
    ("p90", Hist.percentile s.latency 0.90);
    ("p99", Hist.percentile s.latency 0.99);
    ("max", Hist.max s.latency);
  ]

let ok_cell b = if b then "ok" else "FAIL"

let spread_table sl =
  let header =
    [
      "wiring"; "delivered"; "full"; "p50"; "p90"; "p99"; "max"; "mean";
      "reloads"; "batch"; "cpu-ms"; "ok";
    ]
  in
  let rows =
    List.map
      (fun s ->
        [
          wiring_name s.s_wiring;
          string_of_int s.reach;
          Printf.sprintf "%d/%d" s.reach_full s.s_config.broadcasts;
          Table.fmt_si (Hist.percentile s.latency 0.50);
          Table.fmt_si (Hist.percentile s.latency 0.90);
          Table.fmt_si (Hist.percentile s.latency 0.99);
          Table.fmt_si (Hist.max s.latency);
          Table.fmt_si (Hist.mean s.latency);
          string_of_int s.reloads;
          Printf.sprintf "%.1f" s.mean_batch;
          Printf.sprintf "%.3f" (s.cpu_seconds *. 1e3);
          ok_cell (s.s_conserved && s.leak_free);
        ])
      sl
  in
  Table.render ~header rows

let cdf_series s =
  let total = float_of_int (Hist.count s.latency) in
  let points =
    if total = 0.0 then []
    else begin
      let acc = ref 0 in
      List.map
        (fun (ub, c) ->
          acc := !acc + c;
          (ub *. 1e3, float_of_int !acc /. total))
        (Hist.buckets s.latency)
    end
  in
  { Chart.label = wiring_name s.s_wiring; points }

let cdf_chart sl =
  Chart.plot ~width:64 ~height:16 ~x_label:"latency (ms)" ~y_label:"P(l<=x)"
    (List.map cdf_series sl)

let causes_line tag (c : causes) =
  (* Crash causes print only when present, so pre-crash goldens stay
     byte-identical. *)
  let crash =
    if c.crashed = 0 && c.lost_in_crash = 0 then ""
    else Printf.sprintf " crashed=%d lost=%d" c.crashed c.lost_in_crash
  in
  Printf.sprintf
    "%-6s offered=%d dropped=%d down=%d dup=%d corrupt=%d reorder=%d \
     flushed=%d arrived=%d badframe=%d dupdrop=%d delivered=%d sig=%d%s \
     conserved=%s"
    tag c.offered c.fault_dropped c.down_dropped c.duplicated c.corrupted
    c.reordered c.flushed c.arrived c.corrupt_dropped c.dup_dropped
    c.delivered c.sig_delivered crash
    (ok_cell (conserved c))

let storm_table ts =
  let header =
    [
      "wiring"; "pairs"; "calls"; "done"; "failed"; "wire-pairs/s";
      "cpu-us/pair"; "cpu-pairs/s"; "vs-goal"; "ok";
    ]
  in
  let rows =
    List.map
      (fun t ->
        [
          wiring_name t.t_wiring;
          string_of_int t.pairs;
          string_of_int t.calls_requested;
          string_of_int t.calls_completed;
          string_of_int t.calls_failed;
          Printf.sprintf "%.0f" (storm_wire_rate t);
          Printf.sprintf "%.1f" (storm_cpu_us_per_pair t);
          Printf.sprintf "%.0f" (storm_cpu_rate t);
          Printf.sprintf "%.2fx" (storm_cpu_rate t /. goal_pairs_per_sec);
          ok_cell (t.t_conserved && t.t_leak_free);
        ])
      ts
  in
  Table.render ~header rows

let render cfg ~pristine ~chaos ~storms =
  let b = Buffer.create 4096 in
  let ecc =
    match (pristine, chaos) with
    | s :: _, _ | [], s :: _ -> s.ecc0
    | [], [] -> 0
  in
  Buffer.add_string b
    (Printf.sprintf "== mesh: %d hosts, degree %d, seed %d ==\n" cfg.hosts
       cfg.degree cfg.seed);
  Buffer.add_string b
    (Printf.sprintf
       "topology: %d edges, ecc(host0)=%d; link %ss; payload %dB; %d \
        broadcasts\n"
       (cfg.hosts * cfg.degree / 2)
       ecc
       (Table.fmt_si cfg.link_latency)
       cfg.payload_bytes cfg.broadcasts);
  if pristine <> [] then begin
    Buffer.add_string b "\n-- spread: pristine --\n";
    Buffer.add_string b (spread_table pristine);
    Buffer.add_string b "\narrival-latency CDF (pristine):\n";
    Buffer.add_string b (cdf_chart pristine)
  end;
  (match chaos with
  | [] -> ()
  | s :: _ ->
    Buffer.add_string b
      (Printf.sprintf "\n-- spread: chaos (%s) --\n"
         (Plan.describe s.s_config.plan));
    Buffer.add_string b (spread_table chaos);
    Buffer.add_string b "\ndelivered-or-dropped ledger:\n";
    List.iter
      (fun s ->
        Buffer.add_string b (causes_line (wiring_name s.s_wiring) s.s_causes);
        Buffer.add_char b '\n')
      chaos);
  if storms <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "\n-- Q.93B call storm (goal %.0f pairs/s) --\n"
         goal_pairs_per_sec);
    Buffer.add_string b (storm_table storms)
  end;
  Buffer.contents b

let recovery_table ts =
  let header =
    [
      "wiring"; "pairs"; "calls"; "done"; "abandoned"; "retries"; "deferred";
      "goodput/s"; "amp"; "ttr-p50"; "ttr-p99"; "ok";
    ]
  in
  let rows =
    List.map
      (fun t ->
        let sorted = storm_ttr_sorted t in
        [
          wiring_name t.t_wiring;
          string_of_int t.pairs;
          string_of_int t.calls_requested;
          string_of_int t.calls_completed;
          string_of_int t.calls_abandoned;
          string_of_int t.calls_retried;
          string_of_int t.setups_deferred;
          Printf.sprintf "%.0f" (storm_goodput t);
          Printf.sprintf "%.2fx" (storm_retry_amplification t);
          Table.fmt_si (ttr_percentile sorted 0.50);
          Table.fmt_si (ttr_percentile sorted 0.99);
          ok_cell (t.t_conserved && t.t_leak_free && storm_complete t);
        ])
      ts
  in
  Table.render ~header rows

let render_recovery cfg ~storms =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "== recovery: %d hosts, degree %d, seed %d ==\n" cfg.hosts
       cfg.degree cfg.seed);
  Buffer.add_string b
    (Printf.sprintf "lifecycle: %s; links: %s\n"
       (Plan.describe_lifecycle cfg.lifecycle)
       (Plan.describe cfg.plan));
  Buffer.add_string b
    "\n-- Q.93B call storm under crash/restart (retry + admission) --\n";
  Buffer.add_string b (recovery_table storms);
  Buffer.add_string b "\ndelivered-or-abandoned ledger:\n";
  List.iter
    (fun t ->
      Buffer.add_string b (causes_line (wiring_name t.t_wiring) t.t_causes);
      Buffer.add_char b '\n')
    storms;
  Buffer.contents b
