(* fig6-sweep: the Figure 5/6 rate sweep (Poisson 552-byte messages,
   conventional and LDLP, paper parameters, one simulated second per point)
   through Figures.rate_sweep.

   What a reproduction user waits for.  Its cost is the Memsys cache model,
   which no real-stack workload touches.  The untraced run times each rate
   point as its own invocation on one domain, with its own memory layout:
   the light invocations are the ten rates 500..5000 messages/s and the
   heavy ones the ten rates 5500..10000.  On two domains the time followed
   the load other tenants put on the host's second vCPU, which the
   calibration kernel, run on one, cannot see; the traced run measures the
   Ldlp_par pool on two domains, in invocations of two rates. *)

module Figures = Ldlp_model.Figures
module Simrun = Ldlp_model.Simrun
module Params = Ldlp_model.Params
module Rng = Ldlp_sim.Rng

(* The traced run's. *)
let domains = 2

let rec two_by_two = function a :: b :: rest -> [ a; b ] :: two_by_two rest | l -> [ l ]

let rate_phases (mode : Spec.mode) =
  if mode.Spec.quick then [ ("light", [ 500.; 1000. ]); ("heavy", [ 9500.; 10000. ]) ]
  else
    let light, heavy = List.partition (fun r -> r <= 5000.) Figures.default_rates in
    [ ("light", light); ("heavy", heavy) ]

let params (mode : Spec.mode) =
  { Params.paper with runs = 1; seconds = (if mode.Spec.quick then 0.02 else 1.0) }

(* The layout seed of one invocation. *)
let layout_seed (mode : Spec.mode) phase =
  Rng.int (Gen.stream ~seed:mode.Spec.seed ~workload:"fig6-sweep" ~phase) 0x3FFFFFFF

let canonical (pts : Figures.rate_point list) =
  let res (r : Simrun.result) =
    Printf.sprintf "%d,%d,%d,%h,%h,%h,%h,%h,%h,%d,%h" r.Simrun.offered r.Simrun.processed
      r.Simrun.dropped r.Simrun.mean_latency r.Simrun.p50_latency r.Simrun.p99_latency
      r.Simrun.imisses_per_msg r.Simrun.dmisses_per_msg r.Simrun.mean_batch
      r.Simrun.max_batch r.Simrun.throughput
  in
  String.concat ";"
    (List.map
       (fun (p : Figures.rate_point) ->
         Printf.sprintf "%h|%s|%s" p.Figures.rate (res p.Figures.conv) (res p.Figures.ldlp))
       pts)

(* A fixed small sweep whose results are pinned: modeled outputs must not
   change. *)
let golden_digest = "9fb72f1e4520f3c6806f64c2059ddeb6"

let golden () =
  Figures.rate_sweep ~domains:1
    ~params:{ Params.paper with runs = 1; seconds = 0.02 }
    ~seed:1996 ~rates:[ 1000.; 5000.; 9000. ] ()
  |> canonical |> Digest.string |> Digest.to_hex

let msgs (pts : Figures.rate_point list) =
  List.fold_left
    (fun a (p : Figures.rate_point) ->
      a + p.Figures.conv.Simrun.offered + p.Figures.ldlp.Simrun.offered)
    0 pts

let check_points out (pts : Figures.rate_point list) =
  List.iter
    (fun (p : Figures.rate_point) ->
      List.iter
        (fun (r : Simrun.result) ->
          let ok = r.Simrun.processed + r.Simrun.dropped = r.Simrun.offered in
          Spec.check out
            (Printf.sprintf "fig6-sweep: %s at %.0f msg/s accounts for its messages"
               (Simrun.discipline_name r.Simrun.discipline)
               p.Figures.rate)
            ok;
          out.Spec.attempted <- out.Spec.attempted + 1;
          if not ok then out.Spec.failed <- out.Spec.failed + 1)
        [ p.Figures.conv; p.Figures.ldlp ])
    pts

(* One invocation: its checked points and its wall time in ns. *)
let sweep out mode ~domains ~seed rates =
  let t0 = Clock.now_ns () in
  let pts = Figures.rate_sweep ~domains ~params:(params mode) ~seed ~rates () in
  let ns = Clock.now_ns () - t0 in
  check_points out pts;
  (pts, ns)

(* The invocations of a run, [group] making them out of a phase's rates:
   each keeps one layout for the whole run, so its repetitions differ only
   by the host. *)
let invocations (mode : Spec.mode) ~group =
  List.map
    (fun (phase, rates) ->
      ( phase,
        List.mapi
          (fun j rates -> (layout_seed mode (Printf.sprintf "%s/%d" phase j), rates))
          (group rates) ))
    (rate_phases mode)

let one_by_one = List.map (fun r -> [ r ])

(* Set-up checks the pinned sweep and runs the first invocation of each
   phase once, discarded, as the warm-up. *)
let setup out mode phases =
  let digest = golden () in
  Spec.check out
    (Printf.sprintf "fig6-sweep: seed-1996 digest %s, expected %s" digest golden_digest)
    (digest = golden_digest);
  List.iter
    (fun (_, l) ->
      let seed, rates = List.hd l in
      ignore (Figures.rate_sweep ~domains:1 ~params:(params mode) ~seed ~rates ()))
    phases

let run_untraced (mode : Spec.mode) out =
  let phases = invocations mode ~group:one_by_one in
  Spec.simulator_run mode out
    ~setup:(fun () -> setup out mode phases)
    ~phases:(fun () ->
      List.map
        (fun (phase, l) ->
          (phase, List.map (fun (seed, rates) () -> msgs (fst (sweep out mode ~domains:1 ~seed rates))) l))
        phases)

(* The benchmark's replica of one invocation: the same points through
   Ldlp_par and Simrun.run_once directly (as rate_sweep's run_avg does for
   one run), timing each point and run and counting memory-system
   references with a probe.  Spans are timed on the worker domains and
   recorded afterwards. *)
type run_t = { r : Simrun.result; r0 : int; r1 : int; refs : int }

type point_t = { rate : float; conv : run_t; ldlp : run_t; p0 : int; p1 : int; dom : int }

let replica mode ~seed rates =
  let params = params mode in
  let point rate =
    let p0 = Clock.now_ns () in
    let run discipline =
      let master = Rng.create ~seed in
      let rng = Rng.split master in
      let source =
        Ldlp_traffic.Source.limit_time
          (Ldlp_traffic.Poisson.source ~rng:(Rng.split master) ~rate
             ~size:params.Params.msg_bytes ())
          params.Params.seconds
      in
      let refs = ref 0 in
      let probe ~layer:_ = function Ldlp_cache.Memsys.Execute _ -> () | _ -> incr refs in
      let r0 = Clock.now_ns () in
      let r = Simrun.run_once ~params ~discipline ~rng ~source ~probe () in
      { r; r0; r1 = Clock.now_ns (); refs = !refs }
    in
    let conv = run Simrun.Conventional in
    let ldlp = run Simrun.Ldlp in
    { rate; conv; ldlp; p0; p1 = Clock.now_ns (); dom = (Domain.self () :> int) }
  in
  let t0 = Clock.now_ns () in
  let pts = Ldlp_par.Pool.map ~domains point rates in
  (pts, t0, Clock.now_ns ())

let weighted f (pts : Figures.rate_point list) which =
  let num = ref 0. and den = ref 0. in
  List.iter
    (fun p ->
      let r : Simrun.result = which p in
      num := !num +. (f r *. float_of_int r.Simrun.processed);
      den := !den +. float_of_int r.Simrun.processed)
    pts;
  Spec.ratio !num !den

(* One light and one heavy batch untraced, then the same invocations
   through the traced replica. *)
let run_traced (mode : Spec.mode) out =
  setup out mode (invocations mode ~group:one_by_one);
  let invocations = List.concat_map snd (invocations mode ~group:two_by_two) in
  let tr = Tracer.create ~names:[| "sweep"; "point"; "run_once" |] ~capacity:10_000 in
  let id = Tracer.id tr in
  (* A discarded pass first, so that the untraced pass it is compared with
     runs warm, as the traced replica does. *)
  List.iter (fun (seed, rates) -> ignore (sweep out mode ~domains ~seed rates)) invocations;
  let g0 = Spec.gc_now () in
  let untraced = List.map (fun (seed, rates) -> sweep out mode ~domains ~seed rates) invocations in
  let all = List.concat_map fst untraced in
  let nmsgs = msgs all in
  Spec.set_gc out ~ops:nmsgs g0 (Spec.gc_now ());
  Spec.set out "model.imiss_per_msg.conv"
    (weighted (fun r -> r.Simrun.imisses_per_msg) all (fun p -> p.Figures.conv));
  Spec.set out "model.imiss_per_msg.ldlp"
    (weighted (fun r -> r.Simrun.imisses_per_msg) all (fun p -> p.Figures.ldlp));
  Spec.set out "engine.mean_batch"
    (weighted (fun r -> r.Simrun.mean_batch) all (fun p -> p.Figures.ldlp));
  let sweep_ns = ref 0 and point_ns = ref 0 and run_ns = ref 0 and refs = ref 0 in
  List.iteri
    (fun i ((seed, rates), (pts, _)) ->
      let reps, t0, t1 = replica mode ~seed rates in
      sweep_ns := !sweep_ns + (t1 - t0);
      let same =
        canonical
          (List.map (fun p -> { Figures.rate = p.rate; conv = p.conv.r; ldlp = p.ldlp.r }) reps)
        = canonical pts
      in
      Spec.check out "fig6-sweep: replica equals Figures.rate_sweep" same;
      (* The points run in parallel, so the sweep's self time is its wall
         time less the part of it its domains spent inside points. *)
      let inside = List.fold_left (fun a p -> a + (p.p1 - p.p0)) 0 reps / domains in
      let sweep_slot =
        Tracer.record tr (id "sweep") ~op:i ~tid:0 ~parent:(-1) ~start:t0 ~stop:t1
          ~child_ns:inside
      in
      List.iter
        (fun p ->
          let runs = [ p.conv; p.ldlp ] in
          let in_runs = List.fold_left (fun a r -> a + (r.r1 - r.r0)) 0 runs in
          let slot =
            Tracer.record tr (id "point") ~op:i ~tid:p.dom ~parent:sweep_slot ~start:p.p0
              ~stop:p.p1 ~child_ns:in_runs
          in
          List.iter
            (fun r ->
              refs := !refs + r.refs;
              ignore
                (Tracer.record tr (id "run_once") ~op:i ~tid:p.dom ~parent:slot ~start:r.r0
                   ~stop:r.r1 ~child_ns:0))
            runs;
          point_ns := !point_ns + (p.p1 - p.p0);
          run_ns := !run_ns + in_runs)
        reps)
    (List.combine invocations untraced);
  let f = float_of_int in
  let untraced_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 untraced in
  Spec.set out "trace.overhead_pct" (100. *. ((f !sweep_ns /. f untraced_ns) -. 1.));
  Spec.set out "memsys.refs_per_msg" (f !refs /. f nmsgs);
  Spec.set out "par.efficiency" (f !point_ns /. (f domains *. f !sweep_ns));
  Spec.set out "system.ns_per_op" (f !run_ns /. f nmsgs);
  Spec.set out "gen.ns_per_op" (f (!point_ns - !run_ns) /. f nmsgs);
  Spec.set out "engine.reloads_per_msg" 0.;
  Spec.set out "engine.self_pct" 0.;
  Spec.info
    "fig6-sweep trace: %d simulated messages, %.1f ns per memsys reference, %.3f s untraced vs %.3f s traced"
    nmsgs (f !run_ns /. f !refs) (f untraced_ns *. 1e-9) (f !sweep_ns *. 1e-9);
  Spec.absent out [ "sig."; "tcp."; "pcb."; "buf."; "shard."; "mesh."; "fault." ];
  tr

let run (mode : Spec.mode) out =
  if mode.Spec.trace then Some (run_traced mode out)
  else (run_untraced mode out; None)
