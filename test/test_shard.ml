(* Tests for the sharded data path (lib/shard): the SPSC handoff ring,
   the replayable inter-shard handoff, the BSP shard driver, and the two
   cross-shard workloads (stackwork, tcpmini echo) whose results must be
   byte-identical at every shard count. *)

open Ldlp_shard

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---------- Ring: SPSC differential vs a stdlib Queue ---------- *)

let prop_ring_differential =
  QCheck.Test.make ~name:"ring push/pop tracks a reference queue" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_bound 2)))
    (fun (capacity, ops) ->
      let ring = Ring.create ~capacity () in
      let q = Queue.create () in
      let next = ref 0 in
      List.iter
        (fun op ->
          match op with
          | 0 | 1 ->
            (* Push: the ring must accept below capacity, refuse at it. *)
            let accepted = Ring.try_push ring !next in
            if accepted <> (Queue.length q < capacity) then
              QCheck.Test.fail_reportf "push %s at occupancy %d/%d"
                (if accepted then "accepted" else "refused")
                (Queue.length q) capacity;
            if accepted then Queue.push !next q;
            incr next
          | _ -> (
            match (Ring.pop_opt ring, Queue.take_opt q) with
            | None, None -> ()
            | Some a, Some b when a = b -> ()
            | got, want ->
              QCheck.Test.fail_reportf "pop %s, reference %s"
                (match got with None -> "None" | Some v -> string_of_int v)
                (match want with None -> "None" | Some v -> string_of_int v)))
        ops;
      (* Drain: everything the reference holds comes out, in order. *)
      Queue.iter
        (fun want ->
          match Ring.pop_opt ring with
          | Some got when got = want -> ()
          | _ -> QCheck.Test.fail_report "drain order diverged")
        q;
      Ring.pop_opt ring = None)

let test_ring_backpressure () =
  let ring = Ring.create ~capacity:3 () in
  List.iter (fun i -> check "accepted" true (Ring.try_push ring i)) [ 0; 1; 2 ];
  check "full ring refuses" false (Ring.try_push ring 3);
  check "still refusing" false (Ring.try_push ring 4);
  checki "refusals counted" 2 (Ring.refusals ring);
  checki "pushes counted" 3 (Ring.pushes ring);
  checki "watermark" 3 (Ring.max_occupancy ring);
  (* Nothing was dropped: exactly the accepted items come back out. *)
  Alcotest.(check (list int))
    "fifo, no loss" [ 0; 1; 2 ]
    (List.filter_map (fun _ -> Ring.pop_opt ring) [ (); (); () ]);
  check "empty after drain" true (Ring.pop_opt ring = None);
  (* Capacity is a bound on occupancy, not total throughput. *)
  check "reusable after drain" true (Ring.try_push ring 99);
  check "value intact" true (Ring.pop_opt ring = Some 99)

let test_ring_cross_domain () =
  (* One producer domain, consumer on the calling domain: every pushed
     item arrives exactly once, in order, through the atomic indices. *)
  let ring = Ring.create ~capacity:4 () in
  let n = 10_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Ring.try_push ring i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let got = ref 0 in
  while !got < n do
    match Ring.pop_opt ring with
    | Some v ->
      if v <> !got then Alcotest.failf "out of order: got %d want %d" v !got;
      incr got
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  checki "all items crossed" n !got;
  check "empty at the end" true (Ring.pop_opt ring = None)

(* ---------- Handoff: deterministic drain order ---------- *)

let handoff_send h ~shards items =
  (* Sends interleaved across source shards, mimicking emission order. *)
  List.iter
    (fun (src_group, seq, dst_group, v) ->
      Handoff.send h
        ~src_shard:(src_group mod shards)
        ~dst_shard:(dst_group mod shards)
        ~src_group ~seq ~dst_group v)
    items

let test_handoff_order_invariant () =
  (* The same item set must arrive sorted by (src_group, seq) whatever
     the shard count, ring capacity or drain-rotation seed. *)
  let items =
    [
      (2, 0, 0, "c0"); (0, 0, 1, "a0"); (1, 1, 0, "b1"); (0, 1, 2, "a1");
      (1, 0, 2, "b0"); (2, 1, 1, "c1"); (0, 2, 0, "a2");
    ]
  in
  let deliver ~shards ~capacity ~seed =
    let h = Handoff.create ~shards ~capacity ~seed () in
    handoff_send h ~shards items;
    List.concat_map
      (fun dst ->
        List.map
          (fun (it : _ Handoff.item) ->
            (it.Handoff.it_src_group, it.Handoff.it_seq, it.Handoff.it_value))
          (Handoff.receive h ~dst_shard:dst ~round:1))
      (List.init shards Fun.id)
    |> List.sort compare
  in
  let reference = deliver ~shards:1 ~capacity:64 ~seed:0 in
  List.iter
    (fun (shards, capacity, seed) ->
      Alcotest.(check (list (triple int int string)))
        (Printf.sprintf "shards=%d cap=%d seed=%d" shards capacity seed)
        reference
        (deliver ~shards ~capacity ~seed))
    [ (3, 64, 0); (3, 1, 0); (3, 64, 17); (2, 2, 5); (7, 1, 123) ];
  (* And per destination shard the order is exactly (src_group, seq). *)
  let h = Handoff.create ~shards:3 ~capacity:2 ~seed:9 () in
  handoff_send h ~shards:3 items;
  let to0 = Handoff.receive h ~dst_shard:0 ~round:1 in
  Alcotest.(check (list (pair int int)))
    "dst shard 0 sorted by (src_group, seq)"
    [ (0, 2); (1, 1); (2, 0) ]
    (List.map (fun (it : _ Handoff.item) -> (it.Handoff.it_src_group, it.Handoff.it_seq)) to0)

let test_handoff_overflow_never_drops () =
  (* Capacity-1 rings under a burst: refusals pile into overflow, and
     every item still arrives exactly once. *)
  let shards = 2 in
  let h = Handoff.create ~shards ~capacity:1 ~seed:3 () in
  let n = 50 in
  for seq = 0 to n - 1 do
    Handoff.send h ~src_shard:0 ~dst_shard:1 ~src_group:0 ~seq ~dst_group:1 seq
  done;
  let got = Handoff.receive h ~dst_shard:1 ~round:1 in
  checki "all delivered despite refusals" n (List.length got);
  Alcotest.(check (list int))
    "in sequence order"
    (List.init n Fun.id)
    (List.map (fun (it : _ Handoff.item) -> it.Handoff.it_value) got);
  let st = Handoff.stats h in
  checki "transferred" n st.Handoff.transferred;
  check "refusals recorded" true (st.Handoff.ring_refusals > 0)

(* ---------- Msg pools: per-shard ownership ---------- *)

let test_pool_leak_audit_and_cross_release () =
  let a = Ldlp_core.Msg.pool ~capacity:4 ~dummy:0 () in
  let b = Ldlp_core.Msg.pool ~capacity:4 ~dummy:0 () in
  let m = Ldlp_core.Msg.acquire a ~arrival:0.0 ~size:64 7 in
  checki "outstanding while held" 1
    (Ldlp_core.Msg.pool_stats a).Ldlp_core.Msg.p_outstanding;
  (* Releasing into the wrong shard's pool is a bug, not a transfer. *)
  check "cross-pool release raises" true
    (try
       Ldlp_core.Msg.release b m;
       false
     with Invalid_argument _ -> true);
  checki "victim pool untouched" 0
    (Ldlp_core.Msg.pool_stats b).Ldlp_core.Msg.p_outstanding;
  Ldlp_core.Msg.release a m;
  checki "leak-free at quiescence" 0
    (Ldlp_core.Msg.pool_stats a).Ldlp_core.Msg.p_outstanding

(* ---------- Stackwork: placement invariance ---------- *)

let prop_stackwork_placement_invariant =
  QCheck.Test.make
    ~name:"stackwork run is invariant to shards/capacity/seed/policy"
    ~count:60
    QCheck.(
      quad (int_bound 100_000) (int_range 2 5) (int_range 1 3) (int_bound 50))
    (fun (seed, shards, capacity, shard_seed) ->
      let spec = Stackwork.random_spec ~seed () in
      let base = Stackwork.run ~shards:1 spec in
      if not (Stackwork.ledger_ok base) then
        QCheck.Test.fail_report "reference ledger broken";
      let policy =
        if seed land 1 = 0 then Shard.Policy.Affinity else Shard.Policy.Hash
      in
      let r = Stackwork.run ~policy ~shard_seed ~capacity ~shards spec in
      (match Stackwork.diff_reports base r with
      | None -> ()
      | Some d -> QCheck.Test.fail_reportf "%s" d);
      if not (Stackwork.ledger_ok r) then
        QCheck.Test.fail_report "sharded ledger broken";
      Stackwork.wire_multiset base = Stackwork.wire_multiset r)

let test_stackwork_leak_audit () =
  let spec = Stackwork.random_spec ~seed:4242 () in
  List.iter
    (fun shards ->
      let r = Stackwork.run ~shards spec in
      Array.iter
        (fun g ->
          checki
            (Printf.sprintf "group %d pool balanced at shards=%d"
               g.Stackwork.gr_group shards)
            0 g.Stackwork.gr_pool_outstanding)
        r.Stackwork.r_groups)
    [ 1; 2; 3 ]

(* ---------- Stackwork: crash windows ---------- *)

(* A hand-built ring that keeps traffic flowing long enough for the
   crash window to intercept it: every delivery with positive TTL hops
   to the next group, so killing group 1 for rounds 1-2 must drop
   something on the floor — and ledger it. *)
let crash_spec =
  {
    Stackwork.sp_groups = 3;
    sp_layers = Array.make 3 [ Stackwork.Pass; Stackwork.Pass ];
    sp_policy = Ldlp_core.Batch.paper_default;
    sp_init = Array.init 3 (fun g -> List.init 6 (fun i -> ((g * 100) + i, 4)));
    sp_seed = 0;
    sp_crash = [ (1, 1, 3) ];
  }

let test_stackwork_crash_ledgered () =
  let r = Stackwork.run ~shards:1 crash_spec in
  check "crash window drops traffic" true (Stackwork.crashed_total r > 0);
  check "extended ledger holds under crash" true (Stackwork.ledger_ok r);
  Array.iter
    (fun g ->
      checki
        (Printf.sprintf "group %d pool balanced across crash"
           g.Stackwork.gr_group)
        0 g.Stackwork.gr_pool_outstanding)
    r.Stackwork.r_groups;
  (* Only the dead group's ledger carries the loss. *)
  Array.iter
    (fun g ->
      if g.Stackwork.gr_group <> 1 then
        checki
          (Printf.sprintf "group %d untouched by sibling crash"
             g.Stackwork.gr_group)
          0 g.Stackwork.gr_crashed)
    r.Stackwork.r_groups

let prop_stackwork_crash_placement_invariant =
  QCheck.Test.make
    ~name:"stackwork crash plans are invariant to shards/placement"
    ~count:60
    QCheck.(
      quad (int_bound 100_000) (int_range 2 5) (int_range 1 3) (int_bound 50))
    (fun (seed, shards, capacity, shard_seed) ->
      let spec = Stackwork.random_spec ~crash:true ~seed () in
      let base = Stackwork.run ~shards:1 spec in
      if not (Stackwork.ledger_ok base) then
        QCheck.Test.fail_report "reference crash ledger broken";
      let policy =
        if seed land 1 = 0 then Shard.Policy.Affinity else Shard.Policy.Hash
      in
      let r = Stackwork.run ~policy ~shard_seed ~capacity ~shards spec in
      (match Stackwork.diff_reports base r with
      | None -> ()
      | Some d -> QCheck.Test.fail_reportf "%s" d);
      if not (Stackwork.ledger_ok r) then
        QCheck.Test.fail_report "sharded crash ledger broken";
      Stackwork.wire_multiset base = Stackwork.wire_multiset r)

let test_stackwork_crash_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  let with_crash c = { crash_spec with Stackwork.sp_crash = c } in
  check "group out of range" true
    (raises (fun () -> ignore (Stackwork.run ~shards:1 (with_crash [ (9, 1, 2) ]))));
  check "crash at round 0" true
    (raises (fun () -> ignore (Stackwork.run ~shards:1 (with_crash [ (0, 0, 2) ]))));
  check "empty window" true
    (raises (fun () -> ignore (Stackwork.run ~shards:1 (with_crash [ (0, 2, 2) ]))));
  check "overlapping windows" true
    (raises (fun () ->
         ignore (Stackwork.run ~shards:1 (with_crash [ (0, 1, 3); (0, 2, 4) ]))))

let test_shard_driver_error_propagates () =
  (* A worker raising on a non-zero shard must surface on the caller. *)
  let boom shards =
    ignore
      (Shard.run ~shards ~groups:4
         ~make:(fun ~shard ~groups:_ ~emit:_ ->
           {
             Shard.w_deliver = (fun ~src_group:_ ~dst_group:_ (_ : int) -> ());
             w_step =
               (fun ~round ->
                 if shard = shards - 1 && round = 2 then failwith "boom";
                 round < 5);
             w_finish = (fun () -> ());
           })
         ())
  in
  List.iter
    (fun shards ->
      check
        (Printf.sprintf "shards=%d" shards)
        true
        (try
           boom shards;
           false
         with Failure m -> m = "boom"))
    [ 1; 3 ]

(* ---------- Echo: the full tcpmini exchange across shards ---------- *)

let test_echo_placement_invariant () =
  let cfg = Shard_echo.config ~conns:3 ~chunks:6 ~seed:77 () in
  let base = Shard_echo.run ~shards:1 cfg in
  check "reference completes cleanly" true (Shard_echo.all_ok base);
  List.iter
    (fun (shards, capacity, shard_seed, policy) ->
      let r = Shard_echo.run ~policy ~shard_seed ~capacity ~shards cfg in
      check
        (Printf.sprintf "byte-identical at shards=%d cap=%d" shards capacity)
        true
        (Shard_echo.equal_reports base r);
      check (Printf.sprintf "clean at shards=%d" shards) true
        (Shard_echo.all_ok r))
    [
      (2, 64, 0, Shard.Policy.Affinity);
      (3, 1, 11, Shard.Policy.Hash);
      (6, 2, 4, Shard.Policy.Affinity);
    ]

let test_echo_metrics_merge () =
  let cfg = Shard_echo.config ~conns:2 ~chunks:4 ~with_metrics:true () in
  let m1 = Shard_echo.run ~shards:1 cfg in
  let m3 = Shard_echo.run ~shards:3 cfg in
  match (m1.Shard_echo.e_metrics, m3.Shard_echo.e_metrics) with
  | Some a, Some b ->
    checki "merged message count matches single-domain"
      (Ldlp_obs.Metrics.messages a)
      (Ldlp_obs.Metrics.messages b);
    check "some traffic was metered" true (Ldlp_obs.Metrics.messages a > 0)
  | _ -> Alcotest.fail "metric sheets missing"

(* ---------- BENCH_shards.json schema roundtrip ---------- *)

module Json = Ldlp_report.Json
module Schema = Ldlp_report.Schema

let shard_row ?cpu_pairs_per_s n wall cpu_s_max =
  let cpu_rate =
    Option.value cpu_pairs_per_s ~default:(128.0 /. cpu_s_max)
  in
  Schema.
    [
      I n; I 27; I 128; F wall; F (128.0 /. wall); F cpu_s_max; F cpu_rate;
      B true;
    ]

let shards_doc ?(hosts = 256) rows =
  Schema.render Schema.shards Schema.[ I 1996; I hosts; I 4; I 32; I 8; Rows rows ]

let test_shards_json_roundtrip () =
  let json = shards_doc [ shard_row 1 0.036 0.158; shard_row 4 0.012 0.0531 ] in
  match Schema.parse Schema.shards json with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok doc ->
    checki "seed" 1996 (Json.int doc "seed");
    checki "hosts" 256 (Json.int doc "hosts");
    checki "pairs" 32 (Json.int doc "pairs");
    checki "host cores" 8 (Json.int doc "host_cores");
    let rows = Json.arr doc "rows" in
    checki "rows survive" 2 (List.length rows);
    List.iter2
      (fun row shards ->
        checki "shards" shards (Json.int row "shards");
        checki "completed" 128 (Json.int row "completed");
        check "ok flag" true (Json.bool row "ok"))
      rows [ 1; 4 ];
    Alcotest.(check string) "reprints byte-identically" json (Json.to_string doc)

let test_shards_json_rejects_bad () =
  let is_err = function Error _ -> true | Ok _ -> false in
  check "empty doc rejected" true (is_err (Schema.parse Schema.shards "{}"));
  check "wrong schema tag rejected" true
    (is_err
       (Schema.parse Schema.shards
          {|{"schema": "ldlp-bench-mesh/1", "seed": 1, "hosts": 4,
             "degree": 2, "pairs": 1, "host_cores": 1, "rows": []}|}));
  (* A cpu rate inconsistent with completed/cpu_s_max is a forged row. *)
  check "inconsistent cpu rate rejected" true
    (is_err
       (Schema.parse Schema.shards
          (shards_doc [ shard_row ~cpu_pairs_per_s:99_999.0 1 0.036 0.158 ])));
  check "zero shards rejected" true
    (is_err (Schema.parse Schema.shards (shards_doc [ shard_row 0 0.036 0.158 ])));
  check "single-host header rejected" true
    (is_err
       (Schema.parse Schema.shards (shards_doc ~hosts:1 [ shard_row 1 0.036 0.158 ])))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ring_differential;
    Alcotest.test_case "ring backpressure never drops" `Quick
      test_ring_backpressure;
    Alcotest.test_case "ring crosses domains intact" `Quick
      test_ring_cross_domain;
    Alcotest.test_case "handoff drain order is placement-invariant" `Quick
      test_handoff_order_invariant;
    Alcotest.test_case "handoff overflow never drops" `Quick
      test_handoff_overflow_never_drops;
    Alcotest.test_case "per-shard pools: leaks and cross-release" `Quick
      test_pool_leak_audit_and_cross_release;
    QCheck_alcotest.to_alcotest prop_stackwork_placement_invariant;
    Alcotest.test_case "stackwork pools balanced per shard" `Quick
      test_stackwork_leak_audit;
    Alcotest.test_case "stackwork crash drops are ledgered" `Quick
      test_stackwork_crash_ledgered;
    QCheck_alcotest.to_alcotest prop_stackwork_crash_placement_invariant;
    Alcotest.test_case "stackwork crash plans validate" `Quick
      test_stackwork_crash_validation;
    Alcotest.test_case "worker exceptions propagate" `Quick
      test_shard_driver_error_propagates;
    Alcotest.test_case "echo byte-identical across shard counts" `Quick
      test_echo_placement_invariant;
    Alcotest.test_case "echo metric sheets merge" `Quick test_echo_metrics_merge;
    Alcotest.test_case "BENCH_shards.json roundtrip" `Quick
      test_shards_json_roundtrip;
    Alcotest.test_case "BENCH_shards.json rejects bad docs" `Quick
      test_shards_json_rejects_bad;
  ]
