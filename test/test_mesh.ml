(* Tests for the many-host mesh simulator and its topology generator.

   The battery leans on two invariants the mesh is designed around:
   every run is a pure function of [(config, seed)] — so two runs (at
   any parallel domain count) must be byte-identical — and the wire
   clock is discipline-invariant — so the conv/LDLP/duplex wirings must
   agree on every delivery and every cause-ledger entry. *)

open Ldlp_mesh

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Topology generator.                                                 *)
(* ------------------------------------------------------------------ *)

(* Valid (hosts, degree, seed) triples: degree < hosts and an even
   degree sum, the feasibility conditions [generate] enforces. *)
let arb_topo_params =
  let gen =
    QCheck.Gen.(
      int_range 4 40 >>= fun hosts0 ->
      int_range 2 5 >>= fun degree0 ->
      int_range 0 10_000 >>= fun seed ->
      let degree = min degree0 (hosts0 - 1) in
      let hosts = if hosts0 * degree mod 2 = 1 then hosts0 + 1 else hosts0 in
      return (hosts, degree, seed))
  in
  QCheck.make
    ~print:(fun (h, d, s) -> Printf.sprintf "hosts=%d degree=%d seed=%d" h d s)
    gen

let prop_topology_well_formed =
  QCheck.Test.make ~name:"topology: connected, degree-exact, canonical"
    ~count:150 arb_topo_params (fun (hosts, degree, seed) ->
      let t = Topology.generate ~hosts ~degree ~seed in
      let degs = Array.make hosts 0 in
      Array.iter
        (fun (u, v) ->
          degs.(u) <- degs.(u) + 1;
          degs.(v) <- degs.(v) + 1)
        t.Topology.edges;
      Array.for_all (( = ) degree) degs
      && Array.length t.Topology.edges = hosts * degree / 2
      && Array.for_all (fun (u, v) -> u < v) t.Topology.edges
      && Topology.is_connected t)

let prop_topology_deterministic =
  QCheck.Test.make ~name:"topology: same seed, same graph" ~count:100
    arb_topo_params (fun (hosts, degree, seed) ->
      let a = Topology.generate ~hosts ~degree ~seed in
      let b = Topology.generate ~hosts ~degree ~seed in
      a.Topology.edges = b.Topology.edges)

let prop_topology_domain_invariant =
  QCheck.Test.make ~name:"topology: identical edge set at 1 vs 3 domains"
    ~count:40 arb_topo_params (fun (hosts, degree, seed) ->
      (* Generate the same graph inside worker domains and sequentially;
         parallelism must not leak into the seeded draw. *)
      let par =
        Ldlp_par.Pool.map ~domains:3
          (fun _ -> (Topology.generate ~hosts ~degree ~seed).Topology.edges)
          [ 0; 1; 2 ]
      in
      let seq = (Topology.generate ~hosts ~degree ~seed).Topology.edges in
      List.for_all (( = ) seq) par)

let prop_directed_index =
  QCheck.Test.make ~name:"topology: directed_index is a 2E bijection"
    ~count:60 arb_topo_params (fun (hosts, degree, seed) ->
      let t = Topology.generate ~hosts ~degree ~seed in
      Array.to_list t.Topology.edges
      |> List.mapi (fun p (u, v) ->
             Topology.directed_index t ~src:u ~dst:v = (2 * p)
             && Topology.directed_index t ~src:v ~dst:u = (2 * p) + 1)
      |> List.for_all Fun.id)

let test_topology_rejects_infeasible () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  checkb "degree >= hosts" true (raises (fun () ->
      ignore (Topology.generate ~hosts:4 ~degree:4 ~seed:1)));
  checkb "odd degree sum" true (raises (fun () ->
      ignore (Topology.generate ~hosts:5 ~degree:3 ~seed:1)));
  checkb "degree zero disconnects" true (raises (fun () ->
      ignore (Topology.generate ~hosts:4 ~degree:0 ~seed:1)))

(* Dense small graphs exist but are rare draws: at a 10,000-attempt
   budget these triples raised "no simple connected graph" (a QCheck run
   of the properties above drew hosts=8 degree=5 seed=269). *)
let test_topology_dense_seeds () =
  List.iter
    (fun (hosts, degree, seed) ->
      let name = Printf.sprintf "hosts=%d degree=%d seed=%d" hosts degree seed in
      let t = Topology.generate ~hosts ~degree ~seed in
      let e = t.Topology.edges in
      checki (name ^ " edges") (hosts * degree / 2) (Array.length e);
      checkb (name ^ " simple, canonical") true
        (Array.for_all (fun (u, v) -> u < v) e
        && Array.for_all Fun.id
             (Array.init (Array.length e - 1) (fun i -> compare e.(i) e.(i + 1) < 0)));
      checkb (name ^ " degree-exact") true
        (Array.for_all (fun row -> Array.length row = degree) t.Topology.adj);
      checkb (name ^ " connected") true (Topology.is_connected t))
    [ (8, 5, 269); (6, 5, 297); (8, 5, 4) ]

(* Degree 1 on more than 2 hosts is a perfect matching, never connected:
   rejected up front rather than after the whole redraw budget. *)
let test_topology_rejects_degree_one () =
  List.iter
    (fun hosts ->
      match Topology.generate ~hosts ~degree:1 ~seed:1 with
      | _ -> Alcotest.failf "degree 1 on %d hosts accepted" hosts
      | exception Invalid_argument msg ->
        checkb
          (Printf.sprintf "degree 1 on %d hosts: %s" hosts msg)
          true
          (String.starts_with ~prefix:"Topology.generate: degree 1" msg))
    [ 4; 64 ];
  let t = Topology.generate ~hosts:2 ~degree:1 ~seed:1 in
  checkb "degree 1 on 2 hosts is the one edge" true (t.Topology.edges = [| (0, 1) |])

(* ------------------------------------------------------------------ *)
(* Mesh determinism: byte-identical renders.                           *)
(* ------------------------------------------------------------------ *)

let small = Mesh.config ~hosts:16 ~degree:3 ~seed:1996 ~broadcasts:4 ()

let figure ?domains cfg =
  let pristine = Mesh.compare_spread ?domains cfg in
  let chaos = Mesh.compare_spread ?domains { cfg with Mesh.plan = Mesh.chaos_plan } in
  let storms = Mesh.compare_storm ?domains cfg in
  Mesh.render cfg ~pristine ~chaos ~storms

let test_render_byte_identical () =
  Alcotest.(check string)
    "two same-seed runs render identically" (figure ~domains:1 small)
    (figure ~domains:1 small)

let test_render_domain_invariant () =
  Alcotest.(check string)
    "1-domain and 3-domain runs render identically" (figure ~domains:1 small)
    (figure ~domains:3 small)

let test_render_seed_sensitive () =
  checkb "a different seed changes the figure" true
    (figure ~domains:1 small
    <> figure ~domains:1 { small with Mesh.seed = 1997 })

(* ------------------------------------------------------------------ *)
(* Conservation + equivalence oracles.                                 *)
(* ------------------------------------------------------------------ *)

let oracle_ok what cfg =
  match Ldlp_check.Mesh_oracle.run ~domains:1 cfg with
  | Ok n -> checkb (what ^ ": some checks ran") true (n > 0)
  | Error d ->
    Alcotest.failf "%s: %s" what
      (Format.asprintf "%a" Ldlp_check.Mesh_oracle.pp_divergence d)

let test_oracle_pristine () = oracle_ok "pristine" small

let test_oracle_chaos () =
  oracle_ok "chaos" { small with Mesh.plan = Mesh.chaos_plan }

let prop_oracle_over_seeds =
  QCheck.Test.make ~name:"oracle holds over random seeds (chaos plan)"
    ~count:15
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let cfg =
        Mesh.config ~hosts:12 ~degree:3 ~seed ~broadcasts:3
          ~plan:Mesh.chaos_plan ()
      in
      match Ldlp_check.Mesh_oracle.run ~domains:1 cfg with
      | Ok _ -> true
      | Error d ->
        QCheck.Test.fail_reportf "seed %d: %a" seed
          Ldlp_check.Mesh_oracle.pp_divergence d)

let test_pristine_full_reach () =
  let s = Mesh.run_spread ~wiring:Mesh.Duplex small in
  checki "every broadcast reaches every other host" small.Mesh.broadcasts
    s.Mesh.reach_full;
  checki "reach = broadcasts * (hosts - 1)"
    (small.Mesh.broadcasts * (small.Mesh.hosts - 1))
    s.Mesh.reach;
  checkb "pool empty at quiescence" true s.Mesh.leak_free

let test_ldlp_batches_beat_conv () =
  let conv = Mesh.run_spread ~wiring:Mesh.Conv small in
  let ldlp = Mesh.run_spread ~wiring:Mesh.Ldlp small in
  checkb "LDLP reloads below conventional" true
    (ldlp.Mesh.reloads < conv.Mesh.reloads);
  checkb "LDLP batches above 1" true (ldlp.Mesh.mean_batch > 1.0);
  checkb "LDLP modeled CPU below conventional" true
    (ldlp.Mesh.cpu_seconds < conv.Mesh.cpu_seconds)

(* ------------------------------------------------------------------ *)
(* Call storm.                                                         *)
(* ------------------------------------------------------------------ *)

let test_storm_completes () =
  List.iter
    (fun wiring ->
      let t = Mesh.run_storm ~wiring small in
      let name = Mesh.wiring_name wiring in
      checki (name ^ ": all calls complete") t.Mesh.calls_requested
        t.Mesh.calls_completed;
      checki (name ^ ": no failures") 0 t.Mesh.calls_failed;
      checkb (name ^ ": conserved") true t.Mesh.t_conserved;
      checkb (name ^ ": leak-free") true t.Mesh.t_leak_free;
      checkb (name ^ ": positive cpu rate") true (Mesh.storm_cpu_rate t > 0.0))
    Mesh.all_wirings

let test_storm_deterministic () =
  let a = Mesh.run_storm ~wiring:Mesh.Duplex small in
  let b = Mesh.run_storm ~wiring:Mesh.Duplex small in
  checkb "same storm twice" true (a = b)

let test_storm_sharded_equals_single () =
  (* The sharded merge must reproduce the single-domain storm exactly —
     every count, cause, the wire clock and the host-order CPU sum. *)
  List.iter
    (fun wiring ->
      let base = Mesh.run_storm ~wiring small in
      List.iter
        (fun shards ->
          let sh = Mesh.run_storm_sharded ~wiring ~shards small in
          checkb
            (Printf.sprintf "%s shards=%d equals shards=1"
               (Mesh.wiring_name wiring) shards)
            true
            (sh.Mesh.ss_storm = base);
          checki
            (Printf.sprintf "%s shards=%d cpu vector length"
               (Mesh.wiring_name wiring) shards)
            shards
            (Array.length sh.Mesh.ss_cpu_per_shard);
          checkb "per-shard cpu sums to the storm's" true
            (Float.abs
               (Array.fold_left ( +. ) 0.0 sh.Mesh.ss_cpu_per_shard
               -. base.Mesh.storm_cpu_seconds)
            < 1e-9))
        [ 1; 2; 3 ])
    [ Mesh.Ldlp; Mesh.Duplex ];
  (* Sharding also holds under active fault injection. *)
  let chaotic = { small with Mesh.plan = Mesh.chaos_plan } in
  let base = Mesh.run_storm ~wiring:Mesh.Duplex chaotic in
  let sh = Mesh.run_storm_sharded ~wiring:Mesh.Duplex ~shards:3 chaotic in
  checkb "chaos storm shards equal" true (sh.Mesh.ss_storm = base)

(* ------------------------------------------------------------------ *)
(* Crash/restart recovery.                                             *)
(* ------------------------------------------------------------------ *)

let crash_cfg =
  Mesh.config ~hosts:16 ~degree:3 ~seed:1996 ~broadcasts:4
    ~lifecycle:
      (Ldlp_fault.Plan.lifecycle ~victims:1.0 ~episodes:2 ~min_outage:0.002
         ~mean_outage:0.01 ~seed:7 ~hosts:16 ~horizon:0.02 ())
    ()

(* One 1,024-host storm under the chaos plan, pinned to its full result:
   calls, every cause of the ledger, the wire and CPU seconds to the bit,
   and the per-pair completions.  The values were recorded from the
   implementation with a boxed-int64 RNG, a tuple-entry event heap, one
   topology per shard and a binary search per transmitted copy, so the
   allocation-light wire path is held to the same storm, frame for
   frame.  Two shards share the generated topology. *)
let test_storm_chaos_1024_pinned () =
  let cfg = Mesh.config ~hosts:1024 ~degree:4 ~seed:1996 ~plan:Mesh.chaos_plan () in
  let r =
    Mesh.run_storm_sharded ~wiring:Mesh.Duplex ~shards:2 ~pairs:128 ~calls_per_pair:8
      cfg
  in
  let s = r.Mesh.ss_storm and c = r.Mesh.ss_storm.Mesh.t_causes in
  let calls =
    Printf.sprintf "%d/%d failed=%d abandoned=%d retried=%d deferred=%d"
      s.Mesh.calls_completed s.Mesh.calls_requested s.Mesh.calls_failed
      s.Mesh.calls_abandoned s.Mesh.calls_retried s.Mesh.setups_deferred
  in
  Alcotest.(check string) "calls" "1024/1024 failed=0 abandoned=0 retried=0 deferred=0" calls;
  Alcotest.(check string)
    "cause ledger"
    "offered=14859 dropped=739 down=0 dup=284 corrupt=9 reorder=1425 flushed=0 \
     crashed=0 arrived=14404 badframe=9 dupdrop=0 lost=0 delivered=0 sig=14395"
    (Printf.sprintf
       "offered=%d dropped=%d down=%d dup=%d corrupt=%d reorder=%d flushed=%d \
        crashed=%d arrived=%d badframe=%d dupdrop=%d lost=%d delivered=%d sig=%d"
       c.Mesh.offered c.Mesh.fault_dropped c.Mesh.down_dropped c.Mesh.duplicated
       c.Mesh.corrupted c.Mesh.reordered c.Mesh.flushed c.Mesh.crashed c.Mesh.arrived
       c.Mesh.corrupt_dropped c.Mesh.dup_dropped c.Mesh.lost_in_crash
       c.Mesh.delivered c.Mesh.sig_delivered);
  Alcotest.(check string)
    "wire and cpu seconds" "0x1.9cc985f06f693p+0 0x1.8aa961a333206p+0"
    (Printf.sprintf "%h %h" s.Mesh.storm_wire_seconds s.Mesh.storm_cpu_seconds);
  Alcotest.(check (array int)) "pair_done" (Array.make 128 8) s.Mesh.pair_done;
  checkb "conserved and leak-free" true (s.Mesh.t_conserved && s.Mesh.t_leak_free)

let test_recovery_eventual_completion () =
  List.iter
    (fun wiring ->
      let t = Mesh.run_storm ~wiring ~calls_per_pair:6 crash_cfg in
      let name = Mesh.wiring_name wiring in
      checkb (name ^ ": complete-or-abandoned") true (Mesh.storm_complete t);
      checkb (name ^ ": conserved") true t.Mesh.t_conserved;
      checkb (name ^ ": leak-free across crashes") true t.Mesh.t_leak_free;
      checki (name ^ ": legacy failure path unused") 0 t.Mesh.calls_failed)
    Mesh.all_wirings

let test_recovery_exercises_crashes () =
  (* The chosen plan must actually kill traffic, or the battery proves
     nothing: at least one wire emission hits a dead host or dies parked,
     and at least one attempt is retried. *)
  let t = Mesh.run_storm ~wiring:Mesh.Duplex ~calls_per_pair:6 crash_cfg in
  checkb "some frames crashed or were lost parked" true
    (t.Mesh.t_causes.Mesh.crashed + t.Mesh.t_causes.Mesh.lost_in_crash > 0);
  checkb "some attempts retried" true (t.Mesh.calls_retried > 0);
  checkb "retry amplification > 1" true
    (Mesh.storm_retry_amplification t > 1.0);
  checkb "goodput positive" true (Mesh.storm_goodput t > 0.0)

let test_recovery_cross_wiring_equivalent () =
  (* The retry timeline depends only on wire-clock events and private
     per-pair RNG streams, so every wiring must agree on who completed,
     who was abandoned and how many attempts it took. *)
  let storms =
    List.map
      (fun w -> Mesh.run_storm ~wiring:w ~calls_per_pair:6 crash_cfg)
      Mesh.all_wirings
  in
  match storms with
  | base :: rest ->
    List.iter
      (fun t ->
        let name = Mesh.wiring_name t.Mesh.t_wiring in
        checkb (name ^ ": pair_done matches conv") true
          (t.Mesh.pair_done = base.Mesh.pair_done);
        checkb (name ^ ": pair_abandoned matches conv") true
          (t.Mesh.pair_abandoned = base.Mesh.pair_abandoned);
        checki (name ^ ": retries match conv") base.Mesh.calls_retried
          t.Mesh.calls_retried;
        checki (name ^ ": deferrals match conv") base.Mesh.setups_deferred
          t.Mesh.setups_deferred;
        checkb (name ^ ": ttr samples match conv") true
          (t.Mesh.ttr_samples = base.Mesh.ttr_samples))
      rest
  | [] -> Alcotest.fail "no wirings"

let test_recovery_deterministic () =
  let a = Mesh.run_storm ~wiring:Mesh.Ldlp ~calls_per_pair:6 crash_cfg in
  let b = Mesh.run_storm ~wiring:Mesh.Ldlp ~calls_per_pair:6 crash_cfg in
  checkb "same crash storm twice" true (a = b)

let test_recovery_sharded_equals_single () =
  List.iter
    (fun shards ->
      let base = Mesh.run_storm ~wiring:Mesh.Duplex ~calls_per_pair:6 crash_cfg in
      let sh =
        Mesh.run_storm_sharded ~wiring:Mesh.Duplex ~shards ~calls_per_pair:6
          crash_cfg
      in
      checkb
        (Printf.sprintf "crash storm shards=%d equals shards=1" shards)
        true
        (sh.Mesh.ss_storm = base))
    [ 1; 2; 3 ]

let test_recovery_on_pristine_all_complete () =
  (* An explicit policy with no crashes must behave like a pristine
     storm: nothing abandoned, nothing retried, everything done. *)
  let t =
    Mesh.run_storm ~wiring:Mesh.Duplex ~recovery:Mesh.default_recovery small
  in
  checki "all calls complete" t.Mesh.calls_requested t.Mesh.calls_completed;
  checki "nothing abandoned" 0 t.Mesh.calls_abandoned;
  checki "nothing retried" 0 t.Mesh.calls_retried;
  checkb "complete" true (Mesh.storm_complete t)

(* ------------------------------------------------------------------ *)
(* BENCH_mesh.json schema roundtrip.                                   *)
(* ------------------------------------------------------------------ *)

module Json = Ldlp_report.Json
module Schema = Ldlp_report.Schema

let is_err = function Error _ -> true | Ok _ -> false

let spread_row ?(wiring = "ldlp+chaos") () =
  Schema.
    [
      I 64; S wiring; I 1008; F 1.26e-3; F 2.0e-3; F 2.51e-3; F 3.2e-3; F 1.3e-3;
      I 3988; F 3.2; F 0.235; B true;
    ]

let storm_row ?(completed = 32) () =
  Schema.
    [ I 64; S "duplex"; I 8; I 32; I completed; F 10847.0; F 1213.6; F 824.0; B true ]

let mesh_doc ?(seed = 1996) spread storm =
  Schema.render Schema.mesh
    Schema.[ I seed; I 4; F 10_000.0; Rows spread; Rows storm ]

let test_mesh_json_roundtrip () =
  let json = mesh_doc [ spread_row () ] [ storm_row () ] in
  match Schema.parse Schema.mesh json with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok doc ->
    checki "seed" 1996 (Json.int doc "seed");
    checki "degree" 4 (Json.int doc "degree");
    Alcotest.(check (float 1e-9)) "goal" 10_000.0 (Json.num doc "goal_pairs_per_s");
    (match (Json.arr doc "spread", Json.arr doc "storm") with
    | [ spread ], [ storm ] ->
      Alcotest.(check string) "spread wiring" "ldlp+chaos" (Json.str spread "wiring");
      Alcotest.(check (float 0.0)) "spread p50" 1.26e-3 (Json.num spread "p50_s");
      checki "storm completed" 32 (Json.int storm "completed");
      checkb "storm ok" true (Json.bool storm "ok")
    | _ -> Alcotest.fail "row count");
    Alcotest.(check string) "reprints byte-identically" json (Json.to_string doc)

let test_mesh_json_rejects_bad () =
  checkb "empty doc rejected" true (is_err (Schema.parse Schema.mesh "{}"));
  checkb "wrong schema tag rejected" true
    (is_err
       (Schema.parse Schema.mesh
          {|{"schema": "ldlp-bench-soak/1", "seed": 1, "degree": 4,
             "goal_pairs_per_s": 10000, "spread": [], "storm": []}|}));
  checkb "empty wiring rejected" true
    (is_err (Schema.parse Schema.mesh (mesh_doc [ spread_row ~wiring:"" () ] [])));
  checkb "overfull storm rejected" true
    (is_err (Schema.parse Schema.mesh (mesh_doc [] [ storm_row ~completed:33 () ])))

(* ------------------------------------------------------------------ *)
(* BENCH_recovery.json schema roundtrip.                               *)
(* ------------------------------------------------------------------ *)

let recovery_row ?(wiring = "duplex+v100") ?(completed = 24) ?(abandoned = 0)
    ?(amplification = 1.375) () =
  Schema.
    [
      S wiring; I 88; I 24; I completed; I abandoned; I 9; I 2; F 1103.0;
      F amplification; F 9.03e-3; F 9.5e-3; B true;
    ]

let recovery_doc ?(seed = 1996) rows =
  Schema.render Schema.recovery Schema.[ I seed; I 32; I 4; Rows rows ]

let test_recovery_json_roundtrip () =
  let json = recovery_doc [ recovery_row () ] in
  match Schema.parse Schema.recovery json with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok doc ->
    checki "seed" 1996 (Json.int doc "seed");
    checki "hosts" 32 (Json.int doc "hosts");
    checki "degree" 4 (Json.int doc "degree");
    (match Json.arr doc "rows" with
    | [ row ] ->
      Alcotest.(check string) "wiring" "duplex+v100" (Json.str row "wiring");
      Alcotest.(check (float 0.0))
        "amplification" 1.375 (Json.num row "retry_amplification")
    | _ -> Alcotest.fail "row count");
    Alcotest.(check string) "reprints byte-identically" json (Json.to_string doc)

let test_recovery_json_rejects_bad () =
  checkb "empty doc rejected" true (is_err (Schema.parse Schema.recovery "{}"));
  checkb "wrong schema tag rejected" true
    (is_err
       (Schema.parse Schema.recovery
          {|{"schema": "ldlp-bench-mesh/1", "seed": 1, "hosts": 32,
             "degree": 4, "rows": []}|}));
  let forged row = Schema.parse Schema.recovery (recovery_doc ~seed:1 [ row ]) in
  checkb "overfull outcome rejected" true
    (is_err (forged (recovery_row ~completed:20 ~abandoned:5 ())));
  checkb "amplification below one rejected" true
    (is_err (forged (recovery_row ~amplification:0.5 ())));
  checkb "empty wiring rejected" true (is_err (forged (recovery_row ~wiring:"" ())))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_topology_well_formed;
    QCheck_alcotest.to_alcotest prop_topology_deterministic;
    QCheck_alcotest.to_alcotest prop_topology_domain_invariant;
    QCheck_alcotest.to_alcotest prop_directed_index;
    Alcotest.test_case "topology rejects infeasible params" `Quick
      test_topology_rejects_infeasible;
    Alcotest.test_case "topology dense small graphs generate" `Quick
      test_topology_dense_seeds;
    Alcotest.test_case "topology rejects degree 1 beyond 2 hosts" `Quick
      test_topology_rejects_degree_one;
    Alcotest.test_case "render is byte-identical across runs" `Quick
      test_render_byte_identical;
    Alcotest.test_case "render is domain-count invariant" `Quick
      test_render_domain_invariant;
    Alcotest.test_case "render is seed-sensitive" `Quick
      test_render_seed_sensitive;
    Alcotest.test_case "oracle: pristine" `Quick test_oracle_pristine;
    Alcotest.test_case "oracle: chaos" `Quick test_oracle_chaos;
    QCheck_alcotest.to_alcotest prop_oracle_over_seeds;
    Alcotest.test_case "pristine spread reaches everyone" `Quick
      test_pristine_full_reach;
    Alcotest.test_case "LDLP batches beat conventional" `Quick
      test_ldlp_batches_beat_conv;
    Alcotest.test_case "call storm completes on every wiring" `Quick
      test_storm_completes;
    Alcotest.test_case "call storm is deterministic" `Quick
      test_storm_deterministic;
    Alcotest.test_case "sharded storm equals single-domain" `Quick
      test_storm_sharded_equals_single;
    Alcotest.test_case "1024-host chaos storm pinned" `Quick
      test_storm_chaos_1024_pinned;
    Alcotest.test_case "recovery: every call completes or is abandoned" `Quick
      test_recovery_eventual_completion;
    Alcotest.test_case "recovery: crash plan injects real failures" `Quick
      test_recovery_exercises_crashes;
    Alcotest.test_case "recovery: wirings agree on outcome multiset" `Quick
      test_recovery_cross_wiring_equivalent;
    Alcotest.test_case "recovery: crash storm is deterministic" `Quick
      test_recovery_deterministic;
    Alcotest.test_case "recovery: sharded crash storm equals single" `Quick
      test_recovery_sharded_equals_single;
    Alcotest.test_case "recovery: pristine policy run completes all" `Quick
      test_recovery_on_pristine_all_complete;
    Alcotest.test_case "BENCH_mesh.json roundtrip" `Quick
      test_mesh_json_roundtrip;
    Alcotest.test_case "BENCH_mesh.json rejects bad docs" `Quick
      test_mesh_json_rejects_bad;
    Alcotest.test_case "BENCH_recovery.json roundtrip" `Quick
      test_recovery_json_roundtrip;
    Alcotest.test_case "BENCH_recovery.json rejects bad docs" `Quick
      test_recovery_json_rejects_bad;
  ]
