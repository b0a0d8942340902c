(* Tests for the observability subsystem (lib/obs): histogram contracts
   pinned against a naive sorted-array reference, the merge algebra that
   lets per-domain sheets combine, metric-sheet recording, the
   instrumented schedulers, and — the load-bearing guarantee — that
   recording into a sheet allocates nothing on the hot path. *)

module Histogram = Ldlp_obs.Histogram
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
      let dst = of_list xs in
      Histogram.merge_into ~dst (of_list ys);
      Histogram.equal dst (of_list (xs @ ys)))

let test_hist_buckets_listing () =
  let h = of_list [ 0; 0; 1; 5; 5; 6; 1000 ] in
  (* 0 twice; 1 once; [4,7] three times; 1000 in [512,1023]. *)
  check "buckets ascending with counts" true
    (Histogram.buckets h = [ (0, 0, 2); (1, 1, 1); (4, 7, 3); (512, 1023, 1) ])

(* ---------- Metrics sheet ---------- *)

let sheet () = Metrics.create ~label:"t" ~layer_names:[ "a"; "b"; "c" ]

let test_metrics_recorders () =
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
  Metrics.latency_ns m 1000;
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
  r1 := !r1 + 2;
  check "registered" true (Metrics.scalars m = [ ("drops", 2) ])

let filled label =
  let m = Metrics.create ~label ~layer_names:[ "a"; "b" ] in
  Metrics.arrival m ~depth:1;
  Metrics.handled m 0;
  Metrics.handled m 1;
  Metrics.charge m 0 ~exec:10 ~stall:4 ~imisses:2 ~dmisses:1 ~wmisses:0;
  Metrics.batch_run m 1;
  Metrics.latency_ns m 1_000_000;
  incr (Metrics.scalar m "offered");
  m

(* A fresh sheet holding [a]'s and then [b]'s records. *)
let merged label a b =
  let m = Metrics.create ~label ~layer_names:[ "a"; "b" ] in
  Metrics.merge_into ~dst:m a;
  Metrics.merge_into ~dst:m b;
  m

let test_metrics_merge () =
  let x = filled "x" and y = filled "y" in
  Metrics.queue_depth x 1 9;
  Metrics.queue_depth y 1 3;
  let z = merged "z" x y in
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
     with Invalid_argument _ -> true)

let test_metrics_merge_is_order_independent () =
  let x = filled "x" and y = filled "y" in
  Metrics.charge y 1 ~exec:7 ~stall:1 ~imisses:3 ~dmisses:2 ~wmisses:1;
  let xy = merged "m" x y and yx = merged "m" y x in
  check "render equal both orders" true
    (Metrics.render xy = Metrics.render yx)

let test_metrics_render () =
  let m = filled "render me" in
  let s = Metrics.render m in
  check "label" true (contains s "render me");
  check "layer row" true (contains s "a");
  check "per-message rates" true (contains s "per-message");
  check "scalar" true (contains s "offered");
  Metrics.alloc m 0 32;
  check "allocation words left out" true (Metrics.render m = s)

(* ---------- Instrumented scheduler ---------- *)

let passthrough_layers n =
  List.init n (fun i -> Ldlp_core.Layer.passthrough (Printf.sprintf "P%d" i))

let test_sched_records () =
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
  checki "queue peak at entry" 10 (Metrics.layer m 0).Metrics.queue_peak

let test_sched_rejects_bad_sheet () =
  let m = Metrics.create ~label:"short" ~layer_names:[ "only" ] in
  check "layer-count mismatch rejected" true
    (try
       ignore
         (Ldlp_core.Engine.rx_chain ~discipline:Ldlp_core.Engine.Conventional
            ~layers:(passthrough_layers 3) ~metrics:m ());
       false
     with Invalid_argument _ -> true)

(* ---------- Recording allocates nothing ---------- *)

(* Direct recorder loop: 100k calls of every recorder into a sheet must
   not allocate, and the sheet must hold every call.  The tolerance
   covers only the boxed floats the two [Gc.minor_words] reads themselves
   produce. *)
let test_zero_alloc_recorders () =
  let calls = 100_000 in
  let m = sheet () in
  let r = Metrics.scalar m "s" in
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    Metrics.arrival m ~depth:i;
    Metrics.batch_run m 4;
    Metrics.handled m 0;
    Metrics.queue_depth m 1 i;
    Metrics.charge m 2 ~exec:1 ~stall:2 ~imisses:3 ~dmisses:4 ~wmisses:5;
    Metrics.alloc m 0 1;
    Metrics.latency_ns m i;
    incr r
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16.0 then Alcotest.failf "recorders allocated %.0f minor words" dw;
  checki "messages" calls (Metrics.messages m);
  checki "batches" calls (Metrics.batches m);
  checki "depth samples" calls (Histogram.count (Metrics.depth_hist m));
  checki "batch samples" calls (Histogram.count (Metrics.batch_hist m));
  checki "latency samples" calls (Histogram.count (Metrics.latency_hist m));
  checki "queue peak" calls (Metrics.layer m 1).Metrics.queue_peak;
  checki "scalar" calls !r;
  let t = Metrics.totals m in
  checki "handled" calls t.Metrics.t_handled;
  checki "minor words" calls t.Metrics.t_minor_words;
  checki "cycles" (3 * calls) (t.Metrics.t_exec_cycles + t.Metrics.t_stall_cycles);
  checki "misses" (12 * calls)
    (t.Metrics.t_imisses + t.Metrics.t_dmisses + t.Metrics.t_wmisses)

(* End-to-end: a cycle-model run with a sheet attached must give the same
   result as the run without one, fill the sheet, and allocate at most 64
   minor words more over the whole run: the sheet's scalar registration
   and attachment, nothing per message or per layer visit.  One unmetered
   run first absorbs one-time setup. *)
let test_zero_alloc_simrun () =
  let module Simrun = Ldlp_model.Simrun in
  let params =
    { Ldlp_model.Params.quick with Ldlp_model.Params.runs = 1; seconds = 0.05 }
  in
  let run discipline metrics =
    let rng = Ldlp_sim.Rng.create ~seed:21 in
    let source =
      Ldlp_traffic.Source.limit_time
        (Ldlp_traffic.Poisson.source ~rng:(Ldlp_sim.Rng.create ~seed:22)
           ~rate:9000.0 ())
        params.Ldlp_model.Params.seconds
    in
    let w0 = Gc.minor_words () in
    let r = Simrun.run_once ~params ~discipline ~rng ~source ?metrics () in
    (r, Gc.minor_words () -. w0)
  in
  List.iter
    (fun discipline ->
      let case = Simrun.discipline_name discipline in
      ignore (run discipline None);
      let m =
        Metrics.create ~label:case ~layer_names:(Simrun.layer_names params)
      in
      let r_none, d_none = run discipline None in
      let r, d_some = run discipline (Some m) in
      check (case ^ ": same result") true (r = r_none);
      check (case ^ ": real traffic") true (r.Simrun.processed > 300);
      checki (case ^ ": arrivals") (r.Simrun.offered - r.Simrun.dropped)
        (Metrics.messages m);
      checki (case ^ ": latency samples") r.Simrun.processed
        (Histogram.count (Metrics.latency_hist m));
      checki (case ^ ": offered scalar") r.Simrun.offered
        (List.assoc "offered" (Metrics.scalars m));
      checkf (case ^ ": i-misses per message") r.Simrun.imisses_per_msg
        (float_of_int (Metrics.totals m).Metrics.t_imisses
        /. float_of_int r.Simrun.processed);
      if d_some -. d_none > 64.0 then
        Alcotest.failf "%s: a metered run allocated %.0f extra minor words over %d messages"
          case (d_some -. d_none) r.Simrun.processed)
    [ Simrun.Conventional; Simrun.Ldlp ]

let suite =
  [
    Alcotest.test_case "histogram bucket geometry" `Quick test_hist_buckets;
    Alcotest.test_case "histogram empty" `Quick test_hist_empty;
    Alcotest.test_case "histogram bucket listing" `Quick
      test_hist_buckets_listing;
    QCheck_alcotest.to_alcotest prop_hist_matches_reference;
    QCheck_alcotest.to_alcotest prop_hist_quantile_bounds;
    QCheck_alcotest.to_alcotest prop_hist_merge;
    Alcotest.test_case "metrics recorders" `Quick test_metrics_recorders;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics merge order-independent" `Quick
      test_metrics_merge_is_order_independent;
    Alcotest.test_case "metrics render" `Quick test_metrics_render;
    Alcotest.test_case "sched records into sheet" `Quick test_sched_records;
    Alcotest.test_case "sched rejects wrong-shape sheet" `Quick
      test_sched_rejects_bad_sheet;
    Alcotest.test_case "zero allocation: raw recorders" `Quick
      test_zero_alloc_recorders;
    Alcotest.test_case "zero allocation: metered simrun" `Quick
      test_zero_alloc_simrun;
  ]
