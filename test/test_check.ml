(* Tests for the differential-oracle subsystem (lib/check): the naive LRU
   cache oracle vs the production cache, the scheduler-equivalence oracle,
   and the LDLP_CHECK runtime invariants. *)

open Ldlp_check

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---------- Cache_oracle: reference semantics ---------- *)

let tiny_cfg ~assoc =
  (* 4 sets of [assoc] ways, 16-byte lines: aliasing is easy to hit. *)
  Ldlp_cache.Config.v
    ~size_bytes:(4 * assoc * 16)
    ~line_bytes:16 ~associativity:assoc ()

let test_oracle_lru_eviction () =
  let o = Cache_oracle.create (tiny_cfg ~assoc:2) in
  (* Three lines aliasing into set 0 of a 2-way cache: 0, 4, 8. *)
  check "miss 0" false (Cache_oracle.access_line o 0);
  check "miss 4" false (Cache_oracle.access_line o 4);
  check "hit 0" true (Cache_oracle.access_line o 0);
  (* LRU is now 4; installing 8 must evict it, not 0. *)
  check "miss 8" false (Cache_oracle.access_line o 8);
  check "0 survives" true (Cache_oracle.access_line o 0);
  check "4 evicted" false (Cache_oracle.access_line o 4);
  checki "hits" 2 (Cache_oracle.hits o);
  checki "misses" 4 (Cache_oracle.misses o)

let test_oracle_flush_and_occupancy () =
  let o = Cache_oracle.create (tiny_cfg ~assoc:2) in
  ignore (Cache_oracle.touch_range o ~addr:0 ~len:64);
  checki "four lines resident" 4 (Cache_oracle.occupancy o);
  check "resident lines" true
    (Cache_oracle.lines_agree o (fun f -> List.iter f [ 0; 1; 2; 3 ]) = Ok ());
  check "resident probe" true (Cache_oracle.resident o 17);
  Cache_oracle.flush o;
  checki "flushed" 0 (Cache_oracle.occupancy o);
  check "gone" false (Cache_oracle.resident o 17)

(* The differential's state comparison must fail every walk that is not
   exactly the oracle's lines in set order, most recently used first: one
   that stops before the last set, as an [iter] that drops its last run
   would, as much as one that misorders. *)
let test_oracle_lines_agree () =
  let o = Cache_oracle.create (tiny_cfg ~assoc:2) in
  (* Set 0 holds 4 then 0, set 3 holds 7. *)
  List.iter (fun l -> ignore (Cache_oracle.access_line o l)) [ 0; 4; 7 ];
  let agrees lines =
    Cache_oracle.lines_agree o (fun f -> List.iter f lines) = Ok ()
  in
  check "the oracle's own walk" true (agrees [ 4; 0; 7 ]);
  check "last set left out" false (agrees [ 4; 0 ]);
  check "a set's LRU line left out" false (agrees [ 4; 7 ]);
  check "nothing listed" false (agrees []);
  check "LRU order swapped" false (agrees [ 0; 4; 7 ]);
  check "sets out of order" false (agrees [ 7; 4; 0 ]);
  check "a line listed twice" false (agrees [ 4; 0; 7; 7 ]);
  check "a line not resident" false (agrees [ 4; 0; 3; 7 ])

(* ---------- Cache_oracle: differential replay ---------- *)

(* The acceptance bar: >= 10k-step random streams over direct-mapped,
   2-way and 4-way paper-sized configs, zero divergence. *)
let differential_config name cfg () =
  let rng = Ldlp_sim.Rng.create ~seed:2024 in
  let hot_lines = 3 * Ldlp_cache.Config.lines cfg in
  let ops = Cache_oracle.random_ops ~rng ~hot_lines 10_000 in
  match Cache_oracle.differential cfg ops with
  | Ok n -> checki (name ^ ": all steps replayed") 10_000 n
  | Error d ->
    Alcotest.failf "%s diverged: %a" name Cache_oracle.pp_divergence d

(* The streams replayed above must reach the ranges the simulators touch:
   at least one exact 6,144-byte code region, and at least one range longer
   than the 8 KB cache, which wraps the set index within a single call. *)
let test_streams_have_long_ranges () =
  List.iter
    (fun seed ->
      let rng = Ldlp_sim.Rng.create ~seed in
      let ops = Cache_oracle.random_ops ~rng ~hot_lines:768 10_000 in
      let lens =
        List.filter_map
          (function Cache_oracle.Touch_range { len; _ } -> Some len | _ -> None)
          ops
      in
      check
        (Printf.sprintf "seed %d: a 6144 B range" seed)
        true (List.mem 6144 lens);
      check
        (Printf.sprintf "seed %d: a range longer than the cache" seed)
        true
        (List.exists (fun l -> l > 8192) lens);
      check
        (Printf.sprintf "seed %d: ranges stay within the hot set" seed)
        true
        (List.for_all (fun l -> l <= 768 * 32) lens))
    [ 1996; 2024 ]

let test_differential_direct =
  differential_config "direct-mapped" Ldlp_cache.Config.paper_default

let test_differential_2way =
  differential_config "2-way"
    (Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:2 ())

let test_differential_4way =
  differential_config "4-way"
    (Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:4 ())

let prop_differential_random_configs =
  QCheck.Test.make ~name:"cache differential holds on random configs/streams"
    ~count:30
    QCheck.(pair (int_bound 10_000) (int_bound 2))
    (fun (seed, assoc_exp) ->
      let cfg =
        Ldlp_cache.Config.v ~size_bytes:2048 ~line_bytes:16
          ~associativity:(1 lsl assoc_exp) ()
      in
      let rng = Ldlp_sim.Rng.create ~seed in
      let hot_lines = 3 * Ldlp_cache.Config.lines cfg in
      let ops = Cache_oracle.random_ops ~rng ~hot_lines 800 in
      match Cache_oracle.differential cfg ops with
      | Ok _ -> true
      | Error d ->
        QCheck.Test.fail_reportf "diverged: %a" Cache_oracle.pp_divergence d)

let test_differential_detects_divergence () =
  (* Sanity that the comparison is not vacuous: replay the same stream
     against deliberately mismatched geometries and expect disagreement. *)
  let subject =
    Ldlp_cache.Cache.create
      (Ldlp_cache.Config.v ~size_bytes:512 ~line_bytes:16 ~associativity:2 ())
  in
  let oracle =
    Cache_oracle.create
      (Ldlp_cache.Config.v ~size_bytes:512 ~line_bytes:16 ~associativity:1 ())
  in
  let rng = Ldlp_sim.Rng.create ~seed:7 in
  let diverged = ref false in
  for _ = 1 to 2000 do
    let line = Ldlp_sim.Rng.int rng 96 in
    let s = Ldlp_cache.Cache.access_line subject line in
    let o = Cache_oracle.access_line oracle line in
    if s <> o then diverged := true
  done;
  check "assoc 2 vs assoc 1 observably differ" true !diverged

(* ---------- Sched_oracle ---------- *)

let paper_spec =
  {
    Sched_oracle.layers =
      [ Sched_oracle.Pass; Pass; Consume_every 3; Reply_every 2; Pass ];
    msgs = List.init 60 (fun i -> (i mod 3, 552));
    policy = Ldlp_core.Batch.paper_default;
    interleave = 7;
  }

let test_sched_equivalence_fixed () =
  match Sched_oracle.equivalent paper_spec with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_sched_trace_shape () =
  let t = Sched_oracle.run_spec Ldlp_core.Engine.Conventional paper_spec in
  (* Msg 0 is divisible by 3, so layer 2 consumes it: visits 0,1,2. *)
  Alcotest.(check (list int)) "consumed at layer 2" [ 0; 1; 2 ] t.Sched_oracle.visits.(0);
  (* Msg 1 passes everything: all five layers. *)
  Alcotest.(check (list int)) "full climb" [ 0; 1; 2; 3; 4 ] t.Sched_oracle.visits.(1);
  check "conserved" true
    (Sched_oracle.conserved t.Sched_oracle.stats ~pending:0)

let prop_sched_equivalence =
  QCheck.Test.make
    ~name:"conventional and LDLP visit the same per-message layer multiset"
    ~count:120 QCheck.small_nat (fun seed ->
      let rng = Ldlp_sim.Rng.create ~seed in
      let spec = Sched_oracle.random_spec ~rng in
      match Sched_oracle.equivalent spec with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

let prop_sched_conservation =
  QCheck.Test.make
    ~name:"conservation: injected = delivered + consumed + misrouted"
    ~count:120 QCheck.small_nat (fun seed ->
      let rng = Ldlp_sim.Rng.create ~seed:(seed + 1000) in
      let spec = Sched_oracle.random_spec ~rng in
      List.for_all
        (fun d ->
          let t = Sched_oracle.run_spec d spec in
          Sched_oracle.conserved t.Sched_oracle.stats ~pending:0)
        [
          Ldlp_core.Engine.Conventional;
          Ldlp_core.Engine.Ldlp spec.Sched_oracle.policy;
        ])

(* ---------- Invariant (LDLP_CHECK hot-path assertions) ---------- *)

let with_invariants f =
  let was = Ldlp_core.Invariant.enabled () in
  Ldlp_core.Invariant.set_enabled true;
  Fun.protect ~finally:(fun () -> Ldlp_core.Invariant.set_enabled was) f

let test_invariant_gate () =
  let was = Ldlp_core.Invariant.enabled () in
  Fun.protect
    ~finally:(fun () -> Ldlp_core.Invariant.set_enabled was)
    (fun () ->
      Ldlp_core.Invariant.set_enabled false;
      Ldlp_core.Invariant.check false "ignored when disabled";
      Ldlp_core.Invariant.set_enabled true;
      Alcotest.check_raises "raises when enabled"
        (Ldlp_core.Invariant.Violation "boom") (fun () ->
          Ldlp_core.Invariant.check false "boom"))

let test_invariants_pass_on_sched () =
  with_invariants (fun () ->
      match Sched_oracle.equivalent paper_spec with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)

let test_invariants_pass_on_runtime () =
  with_invariants (fun () ->
      let pool = Ldlp_buf.Pool.create () in
      let layers =
        List.init 3 (fun i ->
            Ldlp_core.Layer.passthrough (Printf.sprintf "L%d" i))
      in
      let workload =
        List.init 2000 (fun i ->
            { Ldlp_core.Runtime.at = float_of_int i *. 1e-3; size = 552; flow = 0 })
      in
      let r =
        Ldlp_core.Runtime.run
          ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
          ~layers
          ~make_payload:(fun ~size ->
            Ldlp_buf.Mbuf.of_bytes pool (Bytes.create (min size 1024)))
          ~service:(fun ~batch:_ _ -> 0.002)
          workload
      in
      check "overload exercised drops" true (r.Ldlp_core.Runtime.dropped > 0))

let test_invariants_pass_on_simrun () =
  (* The cycle-accurate model under LDLP_CHECK=1: the hot-path assertions
     must hold through a real (small) simulation of each discipline. *)
  with_invariants (fun () ->
      let params =
        { Ldlp_model.Params.quick with Ldlp_model.Params.runs = 1; seconds = 0.02 }
      in
      List.iter
        (fun discipline ->
          let r =
            Ldlp_model.Simrun.run_avg ~params ~discipline ~seed:3
              ~make_source:(fun rng ->
                Ldlp_traffic.Source.limit_time
                  (Ldlp_traffic.Poisson.source ~rng ~rate:4000.0 ())
                  params.Ldlp_model.Params.seconds)
              ()
          in
          check "simulation processed messages" true
            (r.Ldlp_model.Simrun.processed > 0))
        [ Ldlp_model.Simrun.Conventional; Ldlp_model.Simrun.Ilp; Ldlp_model.Simrun.Ldlp ])

(* ---------- Observability differential: metric sheet vs memsys probe ----------

   The per-layer counters lib/obs accumulates during a simulation are an
   independent code path (counter-diffing around each handler's charge)
   from the raw memory-system event stream.  Recompute every per-layer
   counter from the probe events alone and demand exact agreement, over
   random stack shapes, seeds and all three disciplines.  [Read_data]
   events carry only the miss count, so their stall contribution is
   reconstructed from the d-cache miss penalty. *)

let test_obs_matches_memsys_probe () =
  let module Metrics = Ldlp_obs.Metrics in
  let module Simrun = Ldlp_model.Simrun in
  let cases =
    [
      (Simrun.Conventional, 3, 11);
      (Simrun.Conventional, 5, 12);
      (Simrun.Ilp, 4, 13);
      (Simrun.Ldlp, 5, 14);
      (Simrun.Ldlp, 7, 15);
      (Simrun.Ldlp, 2, 16);
    ]
  in
  List.iter
    (fun (discipline, layers, seed) ->
      let params =
        {
          Ldlp_model.Params.quick with
          Ldlp_model.Params.layers;
          runs = 1;
          seconds = 0.05;
        }
      in
      let names = Simrun.layer_names params in
      let n = List.length names in
      let im = Array.make n 0
      and dm = Array.make n 0
      and wm = Array.make n 0
      and ex = Array.make n 0
      and st = Array.make n 0 in
      let dpenalty =
        params.Ldlp_model.Params.dcache.Ldlp_cache.Config.miss_penalty
      in
      let probe ~layer ev =
        check "events only fire inside a charging layer" true (layer >= 0);
        match ev with
        | Ldlp_cache.Memsys.Fetch_code { misses; stall; _ } ->
          im.(layer) <- im.(layer) + misses;
          st.(layer) <- st.(layer) + stall
        | Ldlp_cache.Memsys.Read_data { misses; _ } ->
          dm.(layer) <- dm.(layer) + misses;
          st.(layer) <- st.(layer) + (misses * dpenalty)
        | Ldlp_cache.Memsys.Write_data { misses; _ } ->
          wm.(layer) <- wm.(layer) + misses
        | Ldlp_cache.Memsys.Execute { cycles } ->
          ex.(layer) <- ex.(layer) + cycles
      in
      let m = Metrics.create ~label:"differential" ~layer_names:names in
      let rng = Ldlp_sim.Rng.create ~seed in
      let source =
        Ldlp_traffic.Source.limit_time
          (Ldlp_traffic.Poisson.source
             ~rng:(Ldlp_sim.Rng.create ~seed:(seed + 100))
             ~rate:8000.0 ())
          params.Ldlp_model.Params.seconds
      in
      let r =
        Simrun.run_once ~params ~discipline ~rng ~source ~metrics:m
          ~probe ()
      in
      check "simulation processed messages" true
        (r.Ldlp_model.Simrun.processed > 0);
      let case = Printf.sprintf "%s/%d layers" (Simrun.discipline_name discipline) layers in
      for i = 0 to n - 1 do
        let l = Metrics.layer m i in
        checki (case ^ " imisses") im.(i) l.Metrics.imisses;
        checki (case ^ " dmisses") dm.(i) l.Metrics.dmisses;
        checki (case ^ " wmisses") wm.(i) l.Metrics.wmisses;
        checki (case ^ " exec") ex.(i) l.Metrics.exec_cycles;
        checki (case ^ " stall") st.(i) l.Metrics.stall_cycles
      done;
      (* And the sheet's totals agree with the simulation's own
         end-of-run counter roll-up. *)
      let t = Metrics.totals m in
      checki (case ^ " total misses vs result")
        (Array.fold_left ( + ) 0 im)
        t.Metrics.t_imisses)
    cases

let suite =
  [
    Alcotest.test_case "oracle LRU eviction" `Quick test_oracle_lru_eviction;
    Alcotest.test_case "oracle flush/occupancy" `Quick
      test_oracle_flush_and_occupancy;
    Alcotest.test_case "oracle lines_agree rejects wrong walks" `Quick
      test_oracle_lines_agree;
    Alcotest.test_case "differential streams have long ranges" `Quick
      test_streams_have_long_ranges;
    Alcotest.test_case "differential direct-mapped 10k" `Quick
      test_differential_direct;
    Alcotest.test_case "differential 2-way 10k" `Quick test_differential_2way;
    Alcotest.test_case "differential 4-way 10k" `Quick test_differential_4way;
    QCheck_alcotest.to_alcotest prop_differential_random_configs;
    Alcotest.test_case "differential detects divergence" `Quick
      test_differential_detects_divergence;
    Alcotest.test_case "sched equivalence (paper-like spec)" `Quick
      test_sched_equivalence_fixed;
    Alcotest.test_case "sched trace shape" `Quick test_sched_trace_shape;
    QCheck_alcotest.to_alcotest prop_sched_equivalence;
    QCheck_alcotest.to_alcotest prop_sched_conservation;
    Alcotest.test_case "invariant gate" `Quick test_invariant_gate;
    Alcotest.test_case "invariants pass on sched oracle" `Quick
      test_invariants_pass_on_sched;
    Alcotest.test_case "invariants pass on runtime" `Quick
      test_invariants_pass_on_runtime;
    Alcotest.test_case "invariants pass on simrun" `Slow
      test_invariants_pass_on_simrun;
    Alcotest.test_case "obs counters match memsys probe" `Quick
      test_obs_matches_memsys_probe;
  ]
