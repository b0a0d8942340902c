(* Tests for the discrete-event substrate: heap, RNG, statistics,
   histograms, engine, table/chart rendering. *)

open Ldlp_sim

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checkf msg a b = Alcotest.(check (float 1e-9)) msg a b

(* ---------- Heap ---------- *)

(* Option views of the heap's allocation-free [peek_key]/[pop_min]. *)
let pop h =
  let cell = [| 0.0 |] in
  if Heap.peek_key h cell then
    let k = cell.(0) in
    Some (k, Heap.pop_min h)
  else None

let peek h = match Heap.to_sorted_list h with [] -> None | kv :: _ -> Some kv

let test_heap_basic () =
  let h = Heap.create () in
  check "fresh heap empty" true (Heap.is_empty h);
  Heap.push h 3.0 "c";
  Heap.push h 1.0 "a";
  Heap.push h 2.0 "b";
  checki "size" 3 (Heap.size h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "peek min" (Some (1.0, "a")) (peek h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop min" (Some (1.0, "a")) (pop h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop next" (Some (2.0, "b")) (pop h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop last" (Some (3.0, "c")) (pop h);
  check "empty after drain" true (pop h = None)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) [ 1; 2; 3; 4; 5 ];
  let order = List.init 5 (fun _ -> snd (Option.get (pop h))) in
  Alcotest.(check (list int)) "ties pop in insertion order" [ 1; 2; 3; 4; 5 ] order

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 ();
  Heap.clear h;
  check "cleared" true (Heap.is_empty h)

let test_heap_to_sorted_list () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k (int_of_float k)) [ 5.; 1.; 4.; 2.; 3. ];
  let keys = List.map fst (Heap.to_sorted_list h) in
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] keys;
  checki "non-destructive" 5 (Heap.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun keys ->
      let h = Heap.create () in
      List.iter (fun k -> Heap.push h k k) keys;
      let rec drain acc =
        match pop h with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

let prop_heap_fifo_ties =
  (* Equal keys must pop in insertion order — the event loop relies on this
     for same-timestamp events. *)
  QCheck.Test.make ~name:"heap is FIFO within equal keys" ~count:200
    QCheck.(list_of_size Gen.(0 -- 60) (int_bound 4))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> Heap.push h (float_of_int k) (k, i)) keys;
      let rec drain acc =
        match pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let inserted = List.mapi (fun i k -> (k, i)) keys in
      drain [] = List.stable_sort (fun (a, _) (b, _) -> compare a b) inserted)

(* [capacity] sizes the backing arrays: pushes up to it allocate nothing
   past the first, which sizes the value array.  Counted as minor plus
   direct-major words, since a grown array this large skips the minor
   heap; the tolerance covers the [Gc.counters] reads. *)
let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let test_heap_capacity () =
  let h = Heap.create ~capacity:4096 () in
  Heap.push h 1.0 0;
  let w0 = words_allocated () in
  for i = 1 to 4095 do
    Heap.push h 1.0 i
  done;
  let dw = words_allocated () -. w0 in
  if dw > 32.0 then
    Alcotest.failf "4095 pushes into a 4096-capacity heap allocated %.0f words" dw;
  checki "all held" 4096 (Heap.size h)

(* ---------- Rng ---------- *)

(* The first draws of four seeds, recorded from the boxed-int64
   implementation: the unboxed state must keep every stream bit for bit,
   or every generated input and figure would move. *)
let test_rng_pinned () =
  List.iter
    (fun (seed, a, b, i1000, imax, f, e, child, after) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      let r = Rng.create ~seed in
      Alcotest.(check int64) (name "int64 #1") a (Rng.int64 r);
      Alcotest.(check int64) (name "int64 #2") b (Rng.int64 r);
      checki (name "int 1000") i1000 (Rng.int r 1000);
      checki (name "int max_int") imax (Rng.int r max_int);
      Alcotest.(check (float 0.0)) (name "float") f (Rng.float r 1.0);
      Alcotest.(check (float 0.0)) (name "exponential") e (Rng.exponential r ~mean:2.0);
      let c = Rng.split r in
      Alcotest.(check int64) (name "split child") child (Rng.int64 c);
      Alcotest.(check int64) (name "parent after split") after (Rng.int64 r))
    [
      ( 0, 5987356902031041503L, 7051070477665621255L, 180, 211316841551650330,
        0x1.409d75e94bdd4p-2, 0x1.003fe1b513144p-2, 3791664082557377893L,
        -2849859482894481063L );
      ( 1996, 3182049385916724945L, -8490628615883724469L, 61, 3586823161419522529,
        0x1.a6db30ae5e246p-2, 0x1.cb60a56abbd99p-4, -1953487479987914288L,
        -2295956192576590429L );
      ( -5, 2519103389350875876L, -3804030898414190368L, 166, 3557956584131104291,
        0x1.c530be92d713ap-2, 0x1.2fb17263b4a7cp-1, -6431029380768156053L,
        780879283203075492L );
      ( max_int, 5042704402088116674L, -4346585348570061276L, 416,
        2651003317969226783, 0x1.ee9cfc754da18p-4, 0x1.366c77d819e57p+0,
        -3004138355605647839L, 1696139565964319462L );
    ]

(* A draw that returns an immediate allocates nothing: the state is
   unboxed.  The tolerance covers the two [Gc.minor_words] reads. *)
let test_rng_zero_alloc () =
  let r = Rng.create ~seed:11 in
  let a = Array.init 64 Fun.id in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc := !acc + Rng.int r 1000;
    if Rng.bool r 0.5 then incr acc
  done;
  for _ = 1 to 100 do
    Rng.shuffle r a
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16.0 then
    Alcotest.failf "10,000 int+bool draws and 100 shuffles allocated %.0f minor words" dw;
  check "draws used" true (!acc > 0)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  check "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_int_range () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done

let test_rng_unit_float_range () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 10_000 do
    let v = Rng.unit_float rng in
    check "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.5
  done;
  let m = !sum /. float_of_int n in
  check "mean within 3%" true (Float.abs (m -. 2.5) < 0.075)

let test_rng_pareto_scale () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 1000 do
    check "pareto >= scale" true (Rng.pareto rng ~shape:1.2 ~scale:3.0 >= 3.0)
  done

let test_rng_geometric () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    check "geometric >= 1" true (Rng.geometric rng ~p:0.3 >= 1)
  done;
  checki "p=1 is always 1" 1 (Rng.geometric rng ~p:1.0)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:9 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  check "children differ" true (Rng.int64 c1 <> Rng.int64 c2)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:10 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let prop_rng_deterministic =
  (* Reproducibility is the whole experiment design: a seed pins every
     figure.  Same seed, same draw sequence, across all the generators. *)
  QCheck.Test.make ~name:"rng: same seed gives the same stream" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let a = Rng.create ~seed and b = Rng.create ~seed in
      List.for_all Fun.id
        (List.init 50 (fun i ->
             match i mod 4 with
             | 0 -> Rng.int64 a = Rng.int64 b
             | 1 -> Rng.int a 1000 = Rng.int b 1000
             | 2 -> Float.equal (Rng.unit_float a) (Rng.unit_float b)
             | _ ->
               Float.equal
                 (Rng.exponential a ~mean:2.0)
                 (Rng.exponential b ~mean:2.0))))

let prop_rng_distinct_seeds =
  QCheck.Test.make ~name:"rng: distinct seeds give distinct streams"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (s1, s2) ->
      QCheck.assume (s1 <> s2);
      let a = Rng.create ~seed:s1 and b = Rng.create ~seed:s2 in
      (* 16 consecutive 64-bit draws all colliding is (practically) only
         possible if seeding folds both seeds to the same state. *)
      List.exists Fun.id (List.init 16 (fun _ -> Rng.int64 a <> Rng.int64 b)))

(* ---------- Stats ---------- *)

let test_stats_known () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  checki "count" 8 (Stats.count s);
  checkf "mean" 5.0 (Stats.mean s);
  checkf "min" 2.0 (Stats.min s);
  checkf "max" 9.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance s)

let test_stats_empty () =
  let s = Stats.create () in
  checkf "empty mean" 0.0 (Stats.mean s);
  checkf "empty variance" 0.0 (Stats.variance s)

let prop_stats_merge =
  QCheck.Test.make ~name:"stats merge equals combined stream" ~count:200
    QCheck.(pair (list (float_bound_inclusive 100.0)) (list (float_bound_inclusive 100.0)))
    (fun (xs, ys) ->
      let a = Stats.create () and b = Stats.create () and c = Stats.create () in
      List.iter (Stats.add a) xs;
      List.iter (Stats.add b) ys;
      List.iter (Stats.add c) (xs @ ys);
      let m = Stats.merge a b in
      Stats.count m = Stats.count c
      && Float.abs (Stats.mean m -. Stats.mean c) < 1e-6
      && Float.abs (Stats.variance m -. Stats.variance c) < 1e-6)

(* ---------- Hist ---------- *)

let test_hist_percentiles () =
  let h = Hist.create () in
  for i = 1 to 1000 do
    Hist.add h (float_of_int i *. 1e-4)
  done;
  checki "count" 1000 (Hist.count h);
  let p50 = Hist.median h in
  check "median near 0.05 (log-bucket tolerance)" true
    (p50 > 0.04 && p50 < 0.065);
  let p99 = Hist.percentile h 0.99 in
  check "p99 near 0.099" true (p99 > 0.08 && p99 <= 0.1);
  check "p100 bounded by max" true (Hist.percentile h 1.0 <= Hist.max h +. 1e-12)

let test_hist_empty () =
  let h = Hist.create () in
  checkf "empty percentile" 0.0 (Hist.percentile h 0.5);
  checki "empty count" 0 (Hist.count h)

let test_hist_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 0.001; 0.002 ];
  List.iter (Hist.add b) [ 0.003; 0.004 ];
  Hist.merge_into ~dst:a b;
  checki "merged count" 4 (Hist.count a);
  checkf "merged mean" 0.0025 (Hist.mean a)

let test_hist_clamps () =
  let h = Hist.create ~lo:1e-6 ~hi:1.0 () in
  Hist.add h 1e-12;
  Hist.add h 100.0;
  checki "clamped samples counted" 2 (Hist.count h)

(* ---------- Engine ---------- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 2.0 (fun () -> log := 2 :: !log);
  Engine.at e 1.0 (fun () -> log := 1 :: !log);
  Engine.at e 3.0 (fun () -> log := 3 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  checkf "clock at last event" 3.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.at e 1.0 (fun () -> incr fired);
  Engine.at e 5.0 (fun () -> incr fired);
  Engine.run ~until:2.0 e;
  checki "only early event" 1 !fired;
  checkf "clock at horizon" 2.0 (Engine.now e);
  checki "late event pending" 1 (Engine.pending e)

let test_engine_schedule_during_run () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.at e 1.0 (fun () ->
      log := "first" :: !log;
      Engine.after e 1.0 (fun () -> log := "second" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "chained" [ "first"; "second" ] (List.rev !log)

let test_engine_past_raises () =
  let e = Engine.create () in
  Engine.at e 1.0 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "scheduling in the past"
    (Invalid_argument "Engine.at: time 0.5 is before now 1") (fun () ->
      Engine.at e 0.5 (fun () -> ()))

let test_engine_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.at e 1.0 (fun () ->
      incr fired;
      Engine.stop e);
  Engine.at e 2.0 (fun () -> incr fired);
  Engine.run e;
  checki "stopped after first" 1 !fired

(* The event queue against a reference: a list of pending events in
   scheduling order, the next one found by a stable sort on time — so
   equal times dispatch in scheduling order.  A program interleaves
   [at] (also in the past, which must raise), [after], [step],
   [run ~until] and [run]; a dispatched event may schedule follow-ups
   from inside its callback.  Both sides log every dispatch (event id and
   clock) and the clock and queue length after every operation. *)
type q_op =
  | Q_at of float * float list  (* absolute time, follow-up delays *)
  | Q_after of float * float list
  | Q_step
  | Q_until of float
  | Q_run

let q_op_print = function
  | Q_at (t, k) ->
    Printf.sprintf "at %g [%s]" t (String.concat ";" (List.map string_of_float k))
  | Q_after (t, k) ->
    Printf.sprintf "after %g [%s]" t (String.concat ";" (List.map string_of_float k))
  | Q_step -> "step"
  | Q_until t -> Printf.sprintf "until %g" t
  | Q_run -> "run"

let arb_q_program =
  let open QCheck.Gen in
  (* Halves on a short range, so equal times are common. *)
  let time = map (fun k -> float_of_int k *. 0.5) (int_bound 8) in
  let kids = list_size (int_bound 2) (map (fun k -> float_of_int k *. 0.5) (int_bound 2)) in
  let op =
    frequency
      [
        (4, map2 (fun t k -> Q_at (t, k)) time kids);
        (4, map2 (fun t k -> Q_after (t, k)) time kids);
        (2, return Q_step);
        (2, map (fun t -> Q_until t) time);
        (1, return Q_run);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat ", " (List.map q_op_print ops))
    (list_size (int_bound 60) op)

type q_log = Fired of int * float | After_op of float * int | Raised

let q_reference ops =
  let now = ref 0.0 and pending = ref [] and next_id = ref 0 and log = ref [] in
  let schedule t kids =
    pending := !pending @ [ (t, !next_id, kids) ];
    incr next_id
  in
  let next () =
    match List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b) !pending with
    | [] -> None
    | ((_, id, _) as ev) :: _ ->
      Some (ev, List.filter (fun (_, id', _) -> id' <> id) !pending)
  in
  let step () =
    match next () with
    | None -> false
    | Some ((t, id, kids), rest) ->
      pending := rest;
      now := t;
      log := Fired (id, t) :: !log;
      List.iter (fun dt -> schedule (!now +. dt) []) kids;
      true
  in
  List.iter
    (fun op ->
      (match op with
      | Q_at (t, kids) -> if t < !now then log := Raised :: !log else schedule t kids
      | Q_after (dt, kids) -> schedule (!now +. dt) kids
      | Q_step -> ignore (step ())
      | Q_until limit ->
        let continue = ref true in
        while !continue do
          match next () with
          | None -> continue := false
          | Some ((t, _, _), _) ->
            if t > limit then begin
              now := limit;
              continue := false
            end
            else ignore (step ())
        done
      | Q_run -> while step () do () done);
      log := After_op (!now, List.length !pending) :: !log)
    ops;
  List.rev !log

let q_engine ops =
  let e = Engine.create () in
  let next_id = ref 0 and log = ref [] in
  (* An id is used only once [at] has accepted the event. *)
  let rec schedule_at t kids =
    let id = !next_id in
    Engine.at e t (fun () ->
        log := Fired (id, Engine.now e) :: !log;
        List.iter (fun dt -> schedule_after dt) kids);
    incr next_id
  and schedule_after dt =
    let id = !next_id in
    Engine.after e dt (fun () -> log := Fired (id, Engine.now e) :: !log);
    incr next_id
  in
  List.iter
    (fun op ->
      (match op with
      | Q_at (t, kids) -> (
        try schedule_at t kids with Invalid_argument _ -> log := Raised :: !log)
      | Q_after (dt, kids) -> schedule_at (Engine.now e +. dt) kids
      | Q_step -> ignore (Engine.step e)
      | Q_until limit -> Engine.run ~until:limit e
      | Q_run -> Engine.run e);
      log := After_op (Engine.now e, Engine.pending e) :: !log)
    ops;
  List.rev !log

let prop_engine_dispatch_order =
  QCheck.Test.make ~name:"engine dispatch order equals a stable sort by time"
    ~count:300 arb_q_program (fun ops -> q_engine ops = q_reference ops)

(* Scheduling and dispatch allocate nothing but the caller's closure and
   the boxed time it passes: here both exist before the measurement, the
   times as a list of boxed floats.  The tolerance covers the two
   [Gc.minor_words] reads. *)
let rec schedule_all e f = function
  | [] -> ()
  | t :: rest ->
    Engine.at e t f;
    schedule_all e f rest

let test_engine_zero_alloc () =
  let e = Engine.create () in
  let fired = ref 0 in
  let f () = incr fired in
  (* Round [k]: 1,000 events over [100k, 100k + 96], ties included, half
     dispatched by [run ~until], some by [step], the rest by [run]. *)
  let rounds =
    Array.init 4 (fun k -> List.init 1000 (fun i -> float_of_int ((100 * k) + (i mod 97))))
  in
  let limits = Array.init 4 (fun k -> Some (float_of_int ((100 * k) + 50))) in
  let round k =
    schedule_all e f rounds.(k);
    Engine.run ?until:limits.(k) e;
    for _ = 1 to 100 do
      ignore (Engine.step e)
    done;
    Engine.run e
  in
  round 0;
  let w0 = Gc.minor_words () in
  round 1;
  round 2;
  round 3;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16.0 then
    Alcotest.failf "scheduling and dispatching 3,000 events allocated %.0f minor words" dw;
  checki "every event fired" 4000 !fired

(* ---------- Table / Chart ---------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_table_render' () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  check "contains 333" true (contains s "333");
  check "contains header" true (contains s "bb")

let test_table_tsv () =
  let s = Table.tsv ~header:[ "x"; "y" ] [ [ "1"; "2" ] ] in
  Alcotest.(check string) "tsv" "x\ty\n1\t2\n" s

let test_fmt_si () =
  Alcotest.(check string) "micro" "250u" (Table.fmt_si 250e-6);
  Alcotest.(check string) "kilo" "1.5k" (Table.fmt_si 1500.0);
  Alcotest.(check string) "milli" "10m" (Table.fmt_si 0.01)

let test_fmt_pct () =
  Alcotest.(check string) "positive" "+17%" (Table.fmt_pct 0.17);
  Alcotest.(check string) "negative" "-41%" (Table.fmt_pct (-0.41));
  Alcotest.(check string) "zero" "0%" (Table.fmt_pct 0.0)

let test_chart_plot () =
  let s =
    Chart.plot
      [ { Chart.label = "A"; points = [ (0.0, 1.0); (1.0, 2.0) ] } ]
  in
  check "chart nonempty" true (String.length s > 0);
  check "legend present" true (contains s "[A]=A")

let test_chart_logy () =
  let s =
    Chart.plot ~logy:true
      [ { Chart.label = "L"; points = [ (0.0, 1e-4); (1.0, 10.0) ] } ]
  in
  check "log scale noted" true (contains s "log scale")

let test_chart_empty () =
  Alcotest.(check string) "no data" "(no data)\n" (Chart.plot [])

let suite =
  [
    Alcotest.test_case "heap basic" `Quick test_heap_basic;
    Alcotest.test_case "heap fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "heap clear" `Quick test_heap_clear;
    Alcotest.test_case "heap to_sorted_list" `Quick test_heap_to_sorted_list;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_fifo_ties;
    Alcotest.test_case "heap capacity pre-sizes its arrays" `Quick test_heap_capacity;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    QCheck_alcotest.to_alcotest prop_rng_deterministic;
    QCheck_alcotest.to_alcotest prop_rng_distinct_seeds;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int range" `Quick test_rng_int_range;
    Alcotest.test_case "rng float range" `Quick test_rng_unit_float_range;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "rng pareto scale" `Quick test_rng_pareto_scale;
    Alcotest.test_case "rng geometric" `Quick test_rng_geometric;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng first draws pinned" `Quick test_rng_pinned;
    Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_zero_alloc;
    Alcotest.test_case "stats known values" `Quick test_stats_known;
    Alcotest.test_case "stats empty" `Quick test_stats_empty;
    QCheck_alcotest.to_alcotest prop_stats_merge;
    Alcotest.test_case "hist percentiles" `Quick test_hist_percentiles;
    Alcotest.test_case "hist empty" `Quick test_hist_empty;
    Alcotest.test_case "hist merge" `Quick test_hist_merge;
    Alcotest.test_case "hist clamps" `Quick test_hist_clamps;
    Alcotest.test_case "engine order" `Quick test_engine_order;
    Alcotest.test_case "engine until" `Quick test_engine_until;
    Alcotest.test_case "engine chained" `Quick test_engine_schedule_during_run;
    Alcotest.test_case "engine past raises" `Quick test_engine_past_raises;
    Alcotest.test_case "engine stop" `Quick test_engine_stop;
    QCheck_alcotest.to_alcotest prop_engine_dispatch_order;
    Alcotest.test_case "engine schedule and dispatch allocate nothing" `Quick
      test_engine_zero_alloc;
    Alcotest.test_case "table render" `Quick test_table_render';
    Alcotest.test_case "table tsv" `Quick test_table_tsv;
    Alcotest.test_case "fmt si" `Quick test_fmt_si;
    Alcotest.test_case "fmt pct" `Quick test_fmt_pct;
    Alcotest.test_case "chart plot" `Quick test_chart_plot;
    Alcotest.test_case "chart logy" `Quick test_chart_logy;
    Alcotest.test_case "chart empty" `Quick test_chart_empty;
  ]
