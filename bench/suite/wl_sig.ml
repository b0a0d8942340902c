(* sig-open: Q.93B call lifecycles through the link/sscop/q93b/call stack
   and an auto-answering switch under LDLP, on one thread in real time.

   The paper's motivating workload.  Every call inserts and then deletes
   switch state, and the path is not pooled, so the engine, the sigproto
   codecs and the GC set the cost. *)

module Engine = Ldlp_core.Engine
module Msg = Ldlp_core.Msg
module Mbuf = Ldlp_buf.Mbuf
open Ldlp_sigproto

let light_rate = 10_000.

(* About a quarter of this stack's saturation rate at the reference speed.
   At 60,000 calls/s the stack sat on a knee: messages queued behind
   major GC slices, the per-run p90 read 140-310 us and the p50 spread by
   10-19% from run to run.  At 40,000 the p90 is about 10 us and the p50
   spread by 4%. *)
let heavy_rate = 40_000.

(* Messages in flight in the closed loop that measures saturation. *)
let in_flight = 256

let discipline = Engine.Ldlp Ldlp_core.Batch.paper_default

let layer_names = [ "link"; "sscop"; "q93b"; "call" ]

let span_names =
  Array.of_list ("gen" :: "engine" :: List.map (fun l -> "sig." ^ l) layer_names)

(* The tracer and the ids of this workload's own spans. *)
type probe = { tr : Tracer.t; gen : int; engine : int }

(* What one sub-run's sinks saw. *)
type sink = {
  mutable clock : Spec.Vclock.t;  (** The open loop's. *)
  lat : Lat.t option;  (** Due time to completion of the call handler... *)
  from_ns : int;  (** ...for messages due in [[from_ns, until_ns)]. *)
  until_ns : int;
  mutable msgs : int;  (** Q.93B messages that reached the top. *)
  mutable down : int;  (** Replies and SSCOP acks sent down. *)
  mutable live_peak : int;
}

type stack = {
  eng : Layers.item Engine.t;
  pool : Ldlp_buf.Pool.t;
  st : Layers.stack;
  k : sink;
}

let fresh ?probe ?lat ?(from_ns = 0) ?(until_ns = max_int) () =
  let pool = Ldlp_buf.Pool.create () in
  let switch = Switch.create ~auto_answer:true ~routes:[] ~local_port:0 () in
  let st = Layers.stack ~pool ~switch () in
  let layers =
    match probe with
    | None -> st.Layers.layers
    | Some p ->
      List.map2 (fun name l -> Tracer.layer p.tr ~rx:("sig." ^ name) l) layer_names
        st.Layers.layers
  in
  let k =
    { clock = Spec.Vclock.create ~factor:1.; lat; from_ns; until_ns; msgs = 0; down = 0; live_peak = 0 }
  in
  let eng =
    Engine.create ~discipline
      ~up:(fun msg ->
        (match k.lat with
        | Some lat ->
          let due = int_of_float msg.Msg.arrival in
          if due >= k.from_ns && due < k.until_ns then
            Lat.add lat (Spec.Vclock.read k.clock - due)
        | None -> ());
        k.msgs <- k.msgs + 1)
      ~down:(fun _ -> k.down <- k.down + 1)
      ()
  in
  let top = List.length layers - 1 in
  List.iteri
    (fun i layer ->
      ignore
        (Engine.add_node eng ~layer ~use_tx:false ~priority:i ~entry:(i = 0)
           ~up_route:(if i = top then Engine.To_up else Engine.To_node (i + 1))
           ~to_route:(fun _ -> Engine.Misroute)
           ~down_route:Engine.To_down))
    layers;
  { eng; pool; st; k }

let inject_bytes s bytes ~off ~len ~due =
  let m = Mbuf.of_bytes s.pool (Bytes.sub bytes off len) in
  Engine.inject s.eng ~node:0
    (Msg.make ~size:len ~arrival:(float_of_int due) (Layers.Raw m))

let inject ?probe s (c : Gen.calls) i =
  let off = c.Gen.off.(i) in
  let len = c.Gen.off.(i + 1) - off in
  match probe with
  | None -> inject_bytes s c.Gen.slab ~off ~len ~due:c.Gen.due_ns.(i)
  | Some p ->
    Tracer.enter p.tr p.gen ~op:i;
    inject_bytes s c.Gen.slab ~off ~len ~due:c.Gen.due_ns.(i);
    Tracer.exit p.tr

let step ?probe s =
  (match probe with
  | None -> ignore (Engine.step s.eng)
  | Some p ->
    Tracer.enter p.tr p.engine ~op:0;
    ignore (Engine.step s.eng);
    Tracer.exit p.tr);
  let live = Switch.active_calls s.st.Layers.switch in
  if live > s.k.live_peak then s.k.live_peak <- live

(* Drain, send the caller's last SSCOP ack once the switch has answered
   everything, then run every correctness check of the sub-run. *)
let finish out s (c : Gen.calls) =
  Engine.run s.eng;
  inject_bytes s c.Gen.final_ack ~off:0 ~len:(Bytes.length c.Gen.final_ack) ~due:0;
  Engine.run s.eng;
  let n = c.Gen.ncalls in
  let sw = Switch.stats s.st.Layers.switch in
  let es = Engine.stats s.eng in
  let ps = Ldlp_buf.Pool.stats s.pool in
  let sscop = s.st.Layers.sscop_for Gen.port in
  let check what cond = Spec.check out ("sig-open: " ^ what) cond in
  check "every SETUP routed" (sw.Switch.setups_routed = n);
  check "every call connected" (sw.Switch.calls_connected = n);
  check "every call released" (sw.Switch.calls_released = n);
  check "no protocol errors or rejections"
    (sw.Switch.protocol_errors = 0 && sw.Switch.rejected = 0);
  check "call table empty" (Switch.active_calls s.st.Layers.switch = 0);
  check "every message reached the call layer" (s.k.msgs = 3 * n);
  check "every reply and ack sent down" (s.k.down = c.Gen.replies + (3 * n));
  check "caller's acks drained the switch's SSCOP buffer"
    (Sscop.unacked sscop = []
    && Sscop.next_send_seq sscop = c.Gen.replies land 0xFFFFFF);
  check "no misrouted or shed messages" (es.Engine.misrouted = 0 && es.Engine.shed = 0);
  check "mbuf pool leak-free"
    (ps.Ldlp_buf.Pool.small_in_use = 0 && ps.Ldlp_buf.Pool.cluster_in_use = 0);
  let completed = min sw.Switch.calls_released (s.k.msgs / 3) in
  out.Spec.attempted <- out.Spec.attempted + n;
  out.Spec.failed <- out.Spec.failed + (n - completed);
  completed

(* Saturation: keep [in_flight] Q.93B messages in the stack, due times
   ignored.  Returns the calls completed. *)
let closed ?probe out (c : Gen.calls) =
  let s = fresh ?probe () in
  let n = Gen.frames c in
  let i = ref 0 and injected = ref 0 in
  while !i < n || Engine.pending s.eng > 0 do
    while
      !i < n && (!injected - s.k.msgs < in_flight || Bytes.get c.Gen.signalling !i = '\000')
    do
      if Bytes.get c.Gen.signalling !i = '\001' then incr injected;
      inject ?probe s c !i;
      incr i
    done;
    step ?probe s
  done;
  finish out s c

type sizes = {
  sat_calls : int;  (** Calls per saturation sub-run. *)
  sat_per_cycle : int;
  window_ns : int;  (** Arrivals per open-loop sub-run span this long. *)
  hold_ns : int;
}

(* A cycle is a burst of saturation sub-runs, then one open-loop sub-run at
   each rate; each open-loop sub-run lasts its arrival window plus one hold
   time, and its latency counts only between the two, where SETUPs,
   CONNECT_ACKs and RELEASEs all arrive at the full rate. *)
let sizes (mode : Spec.mode) =
  if mode.Spec.quick then
    { sat_calls = 300; sat_per_cycle = 2; window_ns = 20_000_000; hold_ns = 2_000_000 }
  else { sat_calls = 5_000; sat_per_cycle = 10; window_ns = 1_200_000_000; hold_ns = 300_000_000 }

(* Open loop: inject each frame when it is due on the busy-time clock
   (Spec.Vclock); [lag], if given, records how late each injection ran.
   Latency is recorded between the hold and the end of arrivals.  Returns
   the finished stack. *)
let open_loop ?lag out z ~factor (c : Gen.calls) =
  let n = Gen.frames c in
  let s = fresh ~lat:(Lat.create n) ~from_ns:z.hold_ns ~until_ns:z.window_ns () in
  let i = ref 0 and vt = Spec.Vclock.create ~factor in
  s.k.clock <- vt;
  while !i < n || Engine.pending s.eng > 0 do
    if Engine.pending s.eng = 0 then Spec.Vclock.idle_until vt c.Gen.due_ns.(!i);
    let now = Spec.Vclock.start vt in
    while !i < n && c.Gen.due_ns.(!i) <= now do
      Option.iter (fun lag -> Lat.add lag (now - c.Gen.due_ns.(!i))) lag;
      inject s c !i;
      incr i
    done;
    step s;
    Spec.Vclock.stop vt
  done;
  ignore (finish out s c);
  s

type env = { sat : Gen.calls; light : Gen.calls; heavy : Gen.calls }

let setup (mode : Spec.mode) z out =
  let calls phase rate =
    Gen.calls ~seed:mode.Spec.seed ~phase ~rate ~hold_ns:z.hold_ns
      ~ncalls:(int_of_float (rate *. float_of_int z.window_ns *. 1e-9))
  in
  let env =
    {
      sat = Gen.calls ~seed:mode.Spec.seed ~phase:"sat" ~rate:heavy_rate ~hold_ns:z.hold_ns
          ~ncalls:z.sat_calls;
      light = calls "light" light_rate;
      heavy = calls "heavy" heavy_rate;
    }
  in
  (* Warm-up, discarded: one saturation sub-run. *)
  ignore (closed out env.sat);
  env

let run_untraced (mode : Spec.mode) z out =
  Spec.real_stack_run mode out
    ~setup:(fun () -> setup mode z out)
    ~sat_per_cycle:z.sat_per_cycle
    ~closed:(fun env -> closed out env.sat)
    ~open_loop:(fun env ~factor phase ->
      let s = open_loop out z ~factor (if phase = "light" then env.light else env.heavy) in
      Spec.summarise (Option.get s.k.lat))

(* Saturation untraced, then traced for the per-layer split; batching,
   reloads and generator lag from an untraced heavy-rate sub-run. *)
let run_traced (mode : Spec.mode) z out =
  let third = mode.Spec.seconds /. 3. in
  let cal = Calib.create ~quick:mode.Spec.quick in
  let env = setup mode z out in
  let tr = Tracer.create ~names:span_names ~capacity:50_000 in
  let id = Tracer.id tr in
  let sub_runs = z.sat_per_cycle in
  let a0 = out.Spec.attempted and g0 = Spec.gc_now () in
  let untraced, _ = Spec.saturation cal ~seconds:third ~sub_runs (fun () -> closed out env.sat) in
  Spec.set_gc out ~ops:(3 * (out.Spec.attempted - a0)) g0 (Spec.gc_now ());
  let a0 = out.Spec.attempted in
  let probe = { tr; gen = id "gen"; engine = id "engine" } in
  let traced, factor =
    Spec.saturation cal ~seconds:third ~sub_runs (fun () -> closed ~probe out env.sat)
  in
  let msgs = float_of_int (3 * (out.Spec.attempted - a0)) in
  (* Self times in ns of reference time. *)
  let total = float_of_int (Tracer.total_self_ns tr) /. factor in
  let self name = float_of_int (Tracer.self_ns tr (id name)) /. factor in
  Spec.set out "trace.overhead_pct" (100. *. ((untraced /. traced) -. 1.));
  Spec.set out "gen.ns_per_op" (self "gen" /. msgs);
  Spec.set out "system.ns_per_op" ((total -. self "gen") /. msgs);
  Spec.set out "engine.self_pct" (Spec.pct (self "engine") total);
  List.iter
    (fun l ->
      let name = "sig." ^ l in
      Spec.set out (name ^ ".self_pct") (Spec.pct (self name) total);
      Spec.set out (name ^ ".words_per_msg")
        (Spec.ratio (Tracer.self_words tr (id name)) (float_of_int (Tracer.count tr (id name)))))
    layer_names;
  let lag = Lat.create (Gen.frames env.heavy) in
  let s = Calib.scaled cal (fun ~factor -> open_loop ~lag out z ~factor env.heavy) in
  let es = Engine.stats s.eng in
  let runs = List.fold_left (fun a (_, r) -> a + r) 0 es.Engine.per_node_runs in
  Spec.set out "engine.mean_batch"
    (Spec.ratio (float_of_int es.Engine.total_batched) (float_of_int es.Engine.batches));
  Spec.set out "engine.reloads_per_msg"
    (Spec.ratio (float_of_int runs) (float_of_int es.Engine.injected));
  Spec.set out "sig.calls_live_peak" (float_of_int s.k.live_peak);
  let ps = Ldlp_buf.Pool.stats s.pool in
  Spec.set out "buf.pool_outstanding_end"
    (float_of_int (ps.Ldlp_buf.Pool.small_in_use + ps.Ldlp_buf.Pool.cluster_in_use));
  Spec.info "sig-open trace: %.0f calls/s untraced, %.0f traced; heavy-rate generator lag p99 %.1f us"
    untraced traced
    (Spec.us_of_ns (Lat.percentile (Lat.sorted lag) ~permille:990));
  Array.iteri
    (fun i name ->
      let n = float_of_int (Tracer.count tr i) in
      Spec.info "  %-10s %8.1f ns self, %6.1f words self per span, %d spans" name
        (Spec.ratio (float_of_int (Tracer.self_ns tr i)) n)
        (Spec.ratio (Tracer.self_words tr i) n)
        (Tracer.count tr i))
    span_names;
  Spec.absent out [ "tcp."; "pcb."; "memsys."; "par."; "model."; "shard."; "mesh."; "fault." ];
  tr

let run (mode : Spec.mode) out =
  let z = sizes mode in
  if mode.Spec.trace then Some (run_traced mode z out)
  else (run_untraced mode z out; None)
