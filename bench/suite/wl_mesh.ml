(* mesh-storm: Q.93B call storms between 128 host pairs of a 1024-host,
   degree-4 random-regular mesh, every host under a full-duplex LDLP
   engine, through Mesh.run_storm_sharded.

   It exercises lib/mesh, Fault.Impair and Uni.  Light storms run on
   pristine links; heavy storms under Mesh.chaos_plan (loss, duplication,
   corruption, reordering), where SSCOP retransmissions add frames to every
   call.  Each storm of a phase has its own topology.  The untraced run
   puts every storm on one shard: on two, its time followed the load other
   tenants put on the host's second vCPU, which the calibration kernel, run
   on one, cannot see.  The traced run measures the two-shard speedup. *)

module Mesh = Ldlp_mesh.Mesh

(* The traced run's. *)
let shards = 2

type sizes = { hosts : int; pairs : int; calls : int; batch : int }

(* A cycle is [batch] light storms, then [batch] heavy ones. *)
let sizes (mode : Spec.mode) =
  if mode.Spec.quick then { hosts = 64; pairs = 8; calls = 4; batch = 2 }
  else { hosts = 1024; pairs = 128; calls = 32; batch = 3 }

(* The topology seeds of the storms: three per phase, pristine (light) and
   under chaos (heavy).  They are fixed, and the run's --seed does not
   apply to this workload: a storm's cost varies by about 15% from one
   random topology to the next (generating the topology alone takes 3 to
   50 ms), more than the few storms of a phase average out.  Every storm
   completes every call on these topologies, at both the full and the
   quick sizes; a storm that does not counts its unfinished calls as
   failed. *)
let light_seeds = [ 273883095; 227913652; 638250715 ]

let heavy_seeds = [ 686049207; 277634268; 583110835 ]

let config z ~heavy seed =
  let plan = if heavy then Mesh.chaos_plan else Ldlp_fault.Plan.none in
  Mesh.config ~hosts:z.hosts ~degree:4 ~seed ~plan ()

(* One storm: its merged result and wall time in ns. *)
let storm ?(shards = shards) ?calls_per_pair z cfg =
  let calls_per_pair = Option.value calls_per_pair ~default:z.calls in
  let t0 = Clock.now_ns () in
  let r =
    Mesh.run_storm_sharded ~wiring:Mesh.Duplex ~shards ~pairs:z.pairs ~calls_per_pair cfg
  in
  (r, Clock.now_ns () - t0)

(* The storm's correctness checks; returns the calls it completed. *)
let check out (r : Mesh.storm_sharded) =
  let s = r.Mesh.ss_storm in
  let c what cond = Spec.check out ("mesh-storm: " ^ what) cond in
  c "cause ledger conserved" s.Mesh.t_conserved;
  c "message pools leak-free" s.Mesh.t_leak_free;
  c "every call completed"
    (s.Mesh.calls_completed = s.Mesh.calls_requested
    && s.Mesh.calls_failed = 0 && s.Mesh.calls_abandoned = 0);
  out.Spec.attempted <- out.Spec.attempted + s.Mesh.calls_requested;
  out.Spec.failed <- out.Spec.failed + s.Mesh.calls_requested - s.Mesh.calls_completed;
  s.Mesh.calls_completed

(* Set-up builds each phase's storm configurations and runs the first heavy
   storm once, discarded, as the warm-up. *)
let setup z =
  let configs ~heavy seeds = List.filteri (fun j _ -> j < z.batch) seeds |> List.map (config z ~heavy) in
  let heavy = configs ~heavy:true heavy_seeds in
  ignore (storm ~shards:1 z (List.hd heavy));
  [ ("light", configs ~heavy:false light_seeds); ("heavy", heavy) ]

let run_untraced (mode : Spec.mode) z out =
  Spec.simulator_run mode out
    ~setup:(fun () -> setup z)
    ~phases:
      (List.map (fun (phase, configs) ->
           (phase, List.map (fun cfg () -> check out (fst (storm ~shards:1 z cfg))) configs)))

let run_traced z out =
  let phases = setup z in
  let first phase = List.hd (List.assoc phase phases) in
  let light = first "light" and heavy = first "heavy" in
  let tr = Tracer.create ~names:[| "gen"; "storm" |] ~capacity:64 in
  let gen = Tracer.id tr "gen" and span = Tracer.id tr "storm" in
  (* Untraced: both storms, for the tracing overhead and the GC counts. *)
  let g0 = Spec.gc_now () in
  let untraced =
    List.map
      (fun cfg ->
        let r, ns = storm z cfg in
        (check out r, ns))
      [ light; heavy ]
  in
  Spec.set_gc out ~ops:(List.fold_left (fun a (c, _) -> a + c) 0 untraced) g0 (Spec.gc_now ());
  (* Traced: the same storms inside spans. *)
  let calls = ref 0 and traced = ref 0 and last = ref None in
  List.iteri
    (fun i cfg ->
      Tracer.enter tr span ~op:i;
      let r, ns = storm z cfg in
      Tracer.exit tr;
      Tracer.enter tr gen ~op:i;
      calls := !calls + check out r;
      Tracer.exit tr;
      traced := !traced + ns;
      last := Some r)
    [ light; heavy ];
  let r = Option.get !last in
  (* The heavy storm on one shard, for the two-shard speedup. *)
  let r1, one = storm ~shards:1 z heavy in
  ignore (check out r1);
  let two = snd (List.nth untraced 1) in
  let s = r.Mesh.ss_storm in
  let f = float_of_int in
  let cpu = r.Mesh.ss_cpu_per_shard in
  let mean = Array.fold_left ( +. ) 0. cpu /. f (Array.length cpu) in
  let untraced_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 untraced in
  Spec.set out "trace.overhead_pct" (100. *. ((f !traced /. f untraced_ns) -. 1.));
  Spec.set out "system.ns_per_op" (f (Tracer.self_ns tr span) /. f !calls);
  Spec.set out "gen.ns_per_op" (f (Tracer.self_ns tr gen) /. f !calls);
  Spec.set out "shard.speedup" (f one /. f two);
  Spec.set out "shard.cpu_imbalance" (Spec.ratio (Array.fold_left Float.max 0. cpu) mean);
  Spec.set out "mesh.frames_per_call"
    (Spec.ratio (f s.Mesh.t_causes.Mesh.offered) (f s.Mesh.calls_completed));
  Spec.set out "fault.drop_ratio"
    (Spec.ratio (f s.Mesh.t_causes.Mesh.fault_dropped) (f s.Mesh.t_causes.Mesh.offered));
  Spec.set out "mesh.retries_per_call"
    (Spec.ratio (f s.Mesh.calls_retried) (f s.Mesh.calls_requested));
  List.iter
    (fun name -> Spec.set out name 0.)
    [ "engine.mean_batch"; "engine.reloads_per_msg"; "engine.self_pct" ];
  Spec.info "mesh-storm trace: heavy storm %.3f s on 1 shard, %.3f s on %d; %d host-disjoint components"
    (f one *. 1e-9) (f two *. 1e-9) shards r.Mesh.ss_components;
  Spec.absent out [ "sig."; "tcp."; "pcb."; "buf."; "memsys."; "par."; "model." ];
  tr

let run (mode : Spec.mode) out =
  let z = sizes mode in
  if mode.Spec.trace then Some (run_traced z out)
  else (run_untraced mode z out; None)
