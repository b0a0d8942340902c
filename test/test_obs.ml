(* Tests for the observability subsystem (lib/obs): histogram contracts
   pinned against a naive sorted-array reference, the merge algebra that
   lets per-domain sheets combine, span and metric-sheet recording, the
   instrumented schedulers, and — the load-bearing guarantee — that the
   disabled gate costs zero allocation on the hot path. *)

module Obs = Ldlp_obs.Obs
module Histogram = Ldlp_obs.Histogram
module Span = Ldlp_obs.Span
module Metrics = Ldlp_obs.Metrics

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf = Alcotest.(check (float 1e-9))

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let of_list xs =
  let h = Histogram.create () in
  List.iter (Histogram.add h) xs;
  h

(* ---------- Histogram: bucket geometry ---------- *)

let test_hist_buckets () =
  checki "0 -> bucket 0" 0 (Histogram.bucket_of 0);
  checki "1 -> bucket 1" 1 (Histogram.bucket_of 1);
  checki "2 -> bucket 2" 2 (Histogram.bucket_of 2);
  checki "3 -> bucket 2" 2 (Histogram.bucket_of 3);
  checki "4 -> bucket 3" 3 (Histogram.bucket_of 4);
  checki "max_int lands in the last bucket" 62 (Histogram.bucket_of max_int);
  (* lo/hi really bracket their bucket, and round-trip through bucket_of. *)
  for b = 0 to 61 do
    let lo = Histogram.bucket_lo b and hi = Histogram.bucket_hi b in
    check "lo <= hi" true (lo <= hi);
    checki "bucket_of lo" b (Histogram.bucket_of lo);
    checki "bucket_of hi" b (Histogram.bucket_of hi)
  done;
  check "negative add rejected" true
    (try
       Histogram.add (Histogram.create ()) (-1);
       false
     with Invalid_argument _ -> true)

let test_hist_empty () =
  let h = Histogram.create () in
  checki "count" 0 (Histogram.count h);
  checki "sum" 0 (Histogram.sum h);
  checkf "mean" 0.0 (Histogram.mean h);
  checki "quantile" 0 (Histogram.quantile h 0.99);
  check "summary" true (contains (Histogram.summary h) "n=0");
  check "buckets" true (Histogram.buckets h = [])

(* The reference implementation the properties compare against: keep every
   value, sort, index.  [quantile] is bucket-resolution by contract — the
   upper bound of the bucket holding the rank-th smallest value, clamped
   to the true maximum. *)
let ref_quantile xs p =
  let sorted = List.sort compare xs in
  let n = List.length sorted in
  if n = 0 then 0
  else
    let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
    let exact = List.nth sorted (rank - 1) in
    min (Histogram.bucket_hi (Histogram.bucket_of exact)) (List.nth sorted (n - 1))

let value_list = QCheck.(list (int_bound 100_000))

let prop_hist_matches_reference =
  QCheck.Test.make ~name:"histogram matches sorted-array reference" ~count:300
    value_list
    (fun xs ->
      let h = of_list xs in
      let n = List.length xs in
      Histogram.count h = n
      && Histogram.sum h = List.fold_left ( + ) 0 xs
      && (n = 0 || Histogram.min_value h = List.fold_left min max_int xs)
      && (n = 0 || Histogram.max_value h = List.fold_left max 0 xs)
      && (n = 0
         || Float.abs
              (Histogram.mean h
              -. float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int n)
            < 1e-9)
      && List.for_all
           (fun p -> Histogram.quantile h p = ref_quantile xs p)
           [ 0.0; 0.5; 0.9; 0.99; 1.0 ]
      && Histogram.median h = ref_quantile xs 0.5)

let prop_hist_quantile_bounds =
  QCheck.Test.make ~name:"quantile never under-reports, never exceeds max"
    ~count:300
    QCheck.(pair value_list (float_range 0.0 1.0))
    (fun (xs, p) ->
      match xs with
      | [] -> Histogram.quantile (of_list xs) p = 0
      | _ ->
        let q = Histogram.quantile (of_list xs) p in
        let sorted = List.sort compare xs in
        let n = List.length sorted in
        let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
        q >= List.nth sorted (rank - 1) && q <= List.nth sorted (n - 1))

let prop_hist_merge =
  QCheck.Test.make
    ~name:"merge a b == recording both streams into one histogram" ~count:300
    QCheck.(pair value_list value_list)
    (fun (xs, ys) ->
      let merged = Histogram.merge (of_list xs) (of_list ys) in
      let direct = of_list (xs @ ys) in
      Histogram.equal merged direct
      &&
      (let dst = of_list xs in
       Histogram.merge_into ~dst (of_list ys);
       Histogram.equal dst direct))

let test_hist_buckets_listing () =
  let h = of_list [ 0; 0; 1; 5; 5; 6; 1000 ] in
  (* 0 twice; 1 once; [4,7] three times; 1000 in [512,1023]. *)
  check "buckets ascending with counts" true
    (Histogram.buckets h = [ (0, 0, 2); (1, 1, 1); (4, 7, 3); (512, 1023, 1) ])

(* ---------- Span ---------- *)

let test_span_gate_off () =
  Obs.with_enabled false (fun () ->
      let s = Span.create "idle" in
      checki "result passes through" 42 (Span.time s (fun () -> 42));
      checki "no call recorded" 0 (Span.calls s);
      checki "no time recorded" 0 (Span.total_ns s))

let test_span_gate_on () =
  Obs.with_enabled true (fun () ->
      let s = Span.create "busy" in
      checki "result" 7 (Span.time s (fun () -> 7));
      ignore (Span.time s (fun () -> Sys.opaque_identity (String.make 64 'x')));
      checki "two calls" 2 (Span.calls s);
      check "allocation attributed" true (Span.minor_words s > 0);
      (* Exceptions still record the call. *)
      (try Span.time s (fun () -> failwith "boom") with Failure _ -> ());
      checki "exceptional call recorded" 3 (Span.calls s);
      let d = Span.create "busy" in
      ignore (Span.time d (fun () -> ()));
      Span.merge_into ~dst:d s;
      checki "merge sums calls" 4 (Span.calls d);
      check "summary names the span" true (contains (Span.summary d) "busy"))

(* ---------- Metrics sheet ---------- *)

let sheet () = Metrics.create ~label:"t" ~layer_names:[ "a"; "b"; "c" ]

let test_metrics_gate_off () =
  Obs.with_enabled false (fun () ->
      let m = sheet () in
      Metrics.arrival m ~depth:5;
      Metrics.batch_run m 4;
      Metrics.handled m 0;
      Metrics.queue_depth m 1 9;
      Metrics.charge m 2 ~exec:10 ~stall:20 ~imisses:1 ~dmisses:2 ~wmisses:3;
      Metrics.alloc m 0 100;
      Metrics.latency_s m 0.5;
      let r = Metrics.scalar m "s" in
      Metrics.add_scalar r 3;
      checki "no messages" 0 (Metrics.messages m);
      checki "no batches" 0 (Metrics.batches m);
      checki "scalar untouched" 0 !r;
      let t = Metrics.totals m in
      checki "no handled" 0 t.Metrics.t_handled;
      checki "no cycles" 0 (t.Metrics.t_exec_cycles + t.Metrics.t_stall_cycles);
      checki "no misses" 0
        (t.Metrics.t_imisses + t.Metrics.t_dmisses + t.Metrics.t_wmisses))

let test_metrics_recorders () =
  Obs.with_enabled true (fun () ->
      let m = sheet () in
      Metrics.arrival m ~depth:3;
      Metrics.arrival m ~depth:7;
      Metrics.batch_run m 2;
      (* a, a, b, a: two quanta for a (entry + re-entry), one for b. *)
      Metrics.handled m 0;
      Metrics.handled m 0;
      Metrics.handled m 1;
      Metrics.handled m 0;
      Metrics.queue_depth m 1 4;
      Metrics.queue_depth m 1 2;
      Metrics.charge m 1 ~exec:100 ~stall:50 ~imisses:5 ~dmisses:3 ~wmisses:1;
      Metrics.charge m 1 ~exec:10 ~stall:5 ~imisses:1 ~dmisses:1 ~wmisses:0;
      Metrics.alloc m 2 64;
      Metrics.latency_s m 1e-6;
      checki "messages" 2 (Metrics.messages m);
      checki "batches" 1 (Metrics.batches m);
      let a = Metrics.layer m 0 and b = Metrics.layer m 1 in
      checki "a handled" 3 a.Metrics.handled;
      checki "a quanta" 2 a.Metrics.quanta;
      checki "b handled" 1 b.Metrics.handled;
      checki "b quanta" 1 b.Metrics.quanta;
      checki "b exec" 110 b.Metrics.exec_cycles;
      checki "b stall" 55 b.Metrics.stall_cycles;
      checki "b imisses" 6 b.Metrics.imisses;
      checki "b dmisses" 4 b.Metrics.dmisses;
      checki "b wmisses" 1 b.Metrics.wmisses;
      checki "b queue peak is a max" 4 b.Metrics.queue_peak;
      checki "c minor words" 64 (Metrics.layer m 2).Metrics.minor_words;
      checki "latency in ns" 1000 (Histogram.max_value (Metrics.latency_hist m));
      checki "depth hist peak" 7 (Histogram.max_value (Metrics.depth_hist m));
      let t = Metrics.totals m in
      checki "total handled" 4 t.Metrics.t_handled;
      checki "total imisses" 6 t.Metrics.t_imisses;
      (* Scalars are find-or-create: same name, same ref. *)
      let r1 = Metrics.scalar m "drops" in
      let r2 = Metrics.scalar m "drops" in
      check "same ref" true (r1 == r2);
      Metrics.add_scalar r1 2;
      check "registered" true (Metrics.scalars m = [ ("drops", 2) ]))

let filled label =
  let m = Metrics.create ~label ~layer_names:[ "a"; "b" ] in
  Metrics.arrival m ~depth:1;
  Metrics.handled m 0;
  Metrics.handled m 1;
  Metrics.charge m 0 ~exec:10 ~stall:4 ~imisses:2 ~dmisses:1 ~wmisses:0;
  Metrics.batch_run m 1;
  Metrics.latency_s m 1e-3;
  Metrics.add_scalar (Metrics.scalar m "offered") 1;
  m

let test_metrics_merge () =
  Obs.with_enabled true (fun () ->
      let x = filled "x" and y = filled "y" in
      Metrics.queue_depth x 1 9;
      Metrics.queue_depth y 1 3;
      let z = Metrics.merge ~label:"z" x y in
      checki "messages sum" 2 (Metrics.messages z);
      checki "batches sum" 2 (Metrics.batches z);
      let t = Metrics.totals z in
      checki "handled sum" 4 t.Metrics.t_handled;
      checki "imisses sum" 4 t.Metrics.t_imisses;
      checki "queue peak is max not sum" 9 (Metrics.layer z 1).Metrics.queue_peak;
      check "scalars sum" true (Metrics.scalars z = [ ("offered", 2) ]);
      check "latency hists merge" true
        (Histogram.count (Metrics.latency_hist z) = 2);
      (* Shape mismatch must be loud, not silent corruption. *)
      let bad = Metrics.create ~label:"bad" ~layer_names:[ "a"; "zzz" ] in
      check "shape mismatch rejected" true
        (try
           Metrics.merge_into ~dst:bad x;
           false
         with Invalid_argument _ -> true))

let test_metrics_merge_is_order_independent () =
  Obs.with_enabled true (fun () ->
      let x = filled "x" and y = filled "y" in
      Metrics.charge y 1 ~exec:7 ~stall:1 ~imisses:3 ~dmisses:2 ~wmisses:1;
      let xy = Metrics.merge ~label:"m" x y
      and yx = Metrics.merge ~label:"m" y x in
      check "render equal both orders" true
        (Metrics.render xy = Metrics.render yx))

let test_metrics_render () =
  Obs.with_enabled true (fun () ->
      let m = filled "render me" in
      let s = Metrics.render m in
      check "label" true (contains s "render me");
      check "layer row" true (contains s "a");
      check "per-message rates" true (contains s "per-message");
      check "scalar" true (contains s "offered");
      check "host data excluded by default" true (not (contains s "-- host"));
      Metrics.alloc m 0 32;
      let h = Metrics.render ~host:true m in
      check "host section on demand" true (contains h "-- host");
      check "allocation attribution" true (contains h "minor-words=32"))

(* ---------- Instrumented scheduler ---------- *)

let passthrough_layers n =
  List.init n (fun i -> Ldlp_core.Layer.passthrough (Printf.sprintf "P%d" i))

let test_sched_records () =
  Obs.with_enabled true (fun () ->
      let m =
        Metrics.create ~label:"sched" ~layer_names:[ "P0"; "P1"; "P2" ]
      in
      let sched =
        Ldlp_core.Engine.rx_chain
          ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
          ~layers:(passthrough_layers 3) ~metrics:m ()
      in
      for _ = 1 to 10 do
        Ldlp_core.Engine.inject sched ~node:0 (Ldlp_core.Msg.make ~size:552 ())
      done;
      Ldlp_core.Engine.run sched;
      checki "arrivals recorded" 10 (Metrics.messages m);
      let t = Metrics.totals m in
      checki "every layer handled every message" 30 t.Metrics.t_handled;
      check "batched under LDLP" true (Metrics.batches m < 10);
      checki "queue peak at entry" 10 (Metrics.layer m 0).Metrics.queue_peak)

let test_sched_rejects_bad_sheet () =
  let m = Metrics.create ~label:"short" ~layer_names:[ "only" ] in
  check "layer-count mismatch rejected" true
    (try
       ignore
         (Ldlp_core.Engine.rx_chain ~discipline:Ldlp_core.Engine.Conventional
            ~layers:(passthrough_layers 3) ~metrics:m ());
       false
     with Invalid_argument _ -> true)

(* ---------- The zero-cost-when-off guarantee ---------- *)

(* Direct recorder loop: with the gate off, 100k recorder calls must not
   allocate.  The tolerance covers only the boxed floats the two
   [Gc.minor_words] reads themselves produce. *)
let test_zero_alloc_recorders () =
  Obs.with_enabled false (fun () ->
      let m = sheet () in
      let r = Metrics.scalar m "s" in
      let s = Span.create "s" in
      let w0 = Gc.minor_words () in
      for i = 1 to 100_000 do
        Metrics.arrival m ~depth:i;
        Metrics.batch_run m 4;
        Metrics.handled m 0;
        Metrics.queue_depth m 1 i;
        Metrics.charge m 2 ~exec:1 ~stall:2 ~imisses:3 ~dmisses:4 ~wmisses:5;
        Metrics.add_scalar r 1;
        Span.time s ignore
      done;
      let dw = Gc.minor_words () -. w0 in
      if dw > 16.0 then
        Alcotest.failf "disabled recorders allocated %.0f minor words" dw;
      checki "and recorded nothing" 0 (Metrics.totals m).Metrics.t_handled)

(* End-to-end: a ~10k-message Runtime run with a (gate-off) sheet attached
   must allocate no more minor words than the identical run with no sheet
   at all — instrumentation that is "off" is provably free.  Fresh pool
   per run so the allocator work is identical; one warmup run per variant
   absorbs one-time setup (scalar registration on the sheet). *)
let runtime_run metrics =
  let pool = Ldlp_buf.Pool.create () in
  let rng = Ldlp_sim.Rng.create ~seed:7 in
  let workload =
    Ldlp_core.Runtime.poisson_workload ~rng ~rate:10_000.0 ~duration:1.0
      ~size:552
  in
  Ldlp_core.Runtime.run
    ~discipline:(Ldlp_core.Engine.Ldlp Ldlp_core.Batch.paper_default)
    ~layers:(passthrough_layers 3)
    ~make_payload:(fun ~size -> Ldlp_buf.Mbuf.of_bytes pool (Bytes.create size))
    ?metrics workload

let test_zero_alloc_runtime () =
  Obs.with_enabled false (fun () ->
      let m = Metrics.create ~label:"off" ~layer_names:[ "P0"; "P1"; "P2" ] in
      ignore (runtime_run None);
      ignore (runtime_run (Some m));
      let w0 = Gc.minor_words () in
      let r_none = runtime_run None in
      let w1 = Gc.minor_words () in
      let r_some = runtime_run (Some m) in
      let w2 = Gc.minor_words () in
      let d_none = w1 -. w0 and d_some = w2 -. w1 in
      check "runs saw real traffic" true
        (r_none.Ldlp_core.Runtime.processed > 9_000);
      checki "identical behaviour" r_none.Ldlp_core.Runtime.processed
        r_some.Ldlp_core.Runtime.processed;
      if d_some > d_none then
        Alcotest.failf
          "metrics-off run allocated %.0f extra minor words over %d messages"
          (d_some -. d_none) r_some.Ldlp_core.Runtime.processed;
      checki "sheet stayed empty" 0 (Metrics.messages m))

(* And the same sheet actually fills up when the gate is on — the off-run
   above is silent because of the gate, not because the wiring is dead. *)
let test_runtime_records_when_on () =
  Obs.with_enabled true (fun () ->
      let m = Metrics.create ~label:"on" ~layer_names:[ "P0"; "P1"; "P2" ] in
      let r = runtime_run (Some m) in
      checki "arrivals = offered - dropped"
        (r.Ldlp_core.Runtime.offered - r.Ldlp_core.Runtime.dropped)
        (Metrics.messages m);
      check "latency samples" true
        (Histogram.count (Metrics.latency_hist m) > 0);
      check "offered scalar" true
        (List.mem_assoc "offered" (Metrics.scalars m)))

let suite =
  [
    Alcotest.test_case "histogram bucket geometry" `Quick test_hist_buckets;
    Alcotest.test_case "histogram empty" `Quick test_hist_empty;
    Alcotest.test_case "histogram bucket listing" `Quick
      test_hist_buckets_listing;
    QCheck_alcotest.to_alcotest prop_hist_matches_reference;
    QCheck_alcotest.to_alcotest prop_hist_quantile_bounds;
    QCheck_alcotest.to_alcotest prop_hist_merge;
    Alcotest.test_case "span gate off" `Quick test_span_gate_off;
    Alcotest.test_case "span gate on" `Quick test_span_gate_on;
    Alcotest.test_case "metrics gate off" `Quick test_metrics_gate_off;
    Alcotest.test_case "metrics recorders" `Quick test_metrics_recorders;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics merge order-independent" `Quick
      test_metrics_merge_is_order_independent;
    Alcotest.test_case "metrics render" `Quick test_metrics_render;
    Alcotest.test_case "sched records into sheet" `Quick test_sched_records;
    Alcotest.test_case "sched rejects wrong-shape sheet" `Quick
      test_sched_rejects_bad_sheet;
    Alcotest.test_case "zero allocation: raw recorders off" `Quick
      test_zero_alloc_recorders;
    Alcotest.test_case "zero allocation: runtime with sheet off" `Quick
      test_zero_alloc_runtime;
    Alcotest.test_case "runtime records when on" `Quick
      test_runtime_records_when_on;
  ]
