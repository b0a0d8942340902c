(* Tests for the cache/memory-system simulator. *)

open Ldlp_cache

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---------- Config ---------- *)

let test_config_defaults () =
  let c = Config.paper_default in
  checki "lines" 256 (Config.lines c);
  checki "sets" 256 (Config.sets c);
  checki "line of addr" 3 (Config.line_of_addr c 96);
  checki "range lines" 2 (Config.lines_in_range c ~addr:30 ~len:4);
  checki "empty range" 0 (Config.lines_in_range c ~addr:0 ~len:0)

let test_config_validation () =
  Alcotest.check_raises "non-pow2 size"
    (Invalid_argument "Config.v: size_bytes must be a power of two") (fun () ->
      ignore (Config.v ~size_bytes:1000 ()));
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument "Config.v: line_bytes must be a power of two") (fun () ->
      ignore (Config.v ~line_bytes:30 ()));
  Alcotest.check_raises "bad assoc"
    (Invalid_argument "Config.v: associativity must be >= 1") (fun () ->
      ignore (Config.v ~associativity:0 ()))

(* ---------- Cache ---------- *)

let test_direct_mapped_hit_miss () =
  let c = Cache.create (Config.v ()) in
  check "cold miss" false (Cache.access c 0);
  check "hit" true (Cache.access c 0);
  check "same line hit" true (Cache.access c 31);
  check "next line miss" false (Cache.access c 32);
  checki "hits" 2 (Cache.hits c);
  checki "misses" 2 (Cache.misses c)

let test_direct_mapped_conflict () =
  let c = Cache.create (Config.v ()) in
  (* 8 KB direct-mapped: addresses 8192 apart conflict. *)
  check "miss a" false (Cache.access c 0);
  check "miss b evicts a" false (Cache.access c 8192);
  check "a evicted" false (Cache.access c 0)

let test_set_associative_lru () =
  let c = Cache.create (Config.v ~associativity:2 ()) in
  (* Two-way: two conflicting lines coexist; a third evicts the LRU. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 8192);
  check "both resident (way 1)" true (Cache.access c 0);
  check "both resident (way 2)" true (Cache.access c 8192);
  (* Access order makes line 0 MRU; inserting a third conflicting line
     evicts 8192. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 16384);
  check "MRU survived" true (Cache.access c 0);
  check "LRU evicted" false (Cache.access c 8192)

(* LRU order, exhaustively: hit the line in each way position, then check
   the eviction order.  Addresses 8192 apart land in set 0 for every
   associativity used here.  [Cache.resident] is non-mutating, so it can
   assert contents without perturbing the recency order. *)

let test_lru_two_way_order () =
  let c = Cache.create (Config.v ~associativity:2 ()) in
  let a = 0 and b = 8192 and e = 16384 in
  ignore (Cache.access c a);
  ignore (Cache.access c b);
  (* Hit in way 1 (a is LRU): promotes a to MRU. *)
  check "hit way 1" true (Cache.access c a);
  (* Hit in way 0 (a is now MRU): order must be unchanged. *)
  check "hit way 0" true (Cache.access c a);
  (* b is LRU: a third conflicting line evicts b, not a. *)
  ignore (Cache.access c e);
  check "MRU a survives" true (Cache.resident c a);
  check "LRU b evicted" false (Cache.resident c b);
  check "new line resident" true (Cache.resident c e)

let test_lru_four_way_order () =
  let c = Cache.create (Config.v ~associativity:4 ()) in
  let a = 0 and b = 8192 and d = 16384 and e = 24576 in
  List.iter (fun x -> ignore (Cache.access c x)) [ a; b; d; e ];
  (* Recency (MRU first): e d b a.  Hit each way position in turn. *)
  check "hit way 3 (a)" true (Cache.access c a);  (* a e d b *)
  check "hit way 2 (d)" true (Cache.access c d);  (* d a e b *)
  check "hit way 1 (a)" true (Cache.access c a);  (* a d e b *)
  check "hit way 0 (a)" true (Cache.access c a);  (* a d e b *)
  checki "4 hits so far" 4 (Cache.hits c);
  (* Eviction order is now b, then e, then d. *)
  let f = 32768 and g = 40960 in
  check "5th line misses" false (Cache.access c f);  (* evicts b *)
  check "b evicted first" false (Cache.resident c b);
  check "e still resident" true (Cache.resident c e);
  ignore (Cache.access c g);  (* evicts e *)
  check "e evicted second" false (Cache.resident c e);
  check "d still resident" true (Cache.resident c d);
  check "a still resident" true (Cache.resident c a);
  check "f still resident" true (Cache.resident c f)

let test_touch_range () =
  let c = Cache.create (Config.v ()) in
  checki "cold range misses" 3 (Cache.touch_range c ~addr:10 ~len:80);
  checki "warm range hits" 0 (Cache.touch_range c ~addr:10 ~len:80);
  checki "empty range" 0 (Cache.touch_range c ~addr:0 ~len:0);
  checki "hit counter" 3 (Cache.hits c);
  checki "miss counter" 3 (Cache.misses c)

(* Ranges at least as long as the 256-line direct-mapped cache: one of
   exactly its size fits and rehits; one of 3x its size wraps the set index
   twice, so its last third evicts the rest and a replay misses on every
   line. *)
let test_touch_range_wraps () =
  let c = Cache.create Config.paper_default in
  checki "cache-sized range, cold" 256 (Cache.touch_range c ~addr:0 ~len:8192);
  checki "cache-sized range, warm" 0 (Cache.touch_range c ~addr:0 ~len:8192);
  Cache.flush c;
  Cache.reset_counters c;
  checki "3x range, cold" 768 (Cache.touch_range c ~addr:0 ~len:24576);
  checki "3x range, replayed" 768 (Cache.touch_range c ~addr:0 ~len:24576);
  checki "only the last third stays" 256 (Cache.occupancy c);
  check "line 767 resident" true (Cache.resident c (767 * 32));
  check "line 0 evicted" false (Cache.resident c 0);
  checki "no hits" 0 (Cache.hits c);
  checki "misses" 1536 (Cache.misses c)

(* [Replace.access_range] against [Replace.access] on each key in turn,
   from the same random starting state, over random geometries and ranges
   up to 3x the table (so ranges wrap): same misses, same tags in the same
   LRU order, same occupancy and evictions. *)
let prop_access_range_is_per_key_replay =
  QCheck.Test.make ~name:"Replace.access_range equals per-key access"
    ~count:300
    QCheck.(
      quad (int_bound 6) (int_bound 3)
        (list_of_size Gen.(0 -- 200) (int_bound 1023))
        (pair (int_bound 1023) (int_bound 1024)))
    (fun (sets_exp, ways_exp, warm, (first, span)) ->
      let sets = 1 lsl sets_exp and ways = 1 lsl ways_exp in
      let a = Replace.create ~sets ~ways and b = Replace.create ~sets ~ways in
      List.iter (fun k -> ignore (Replace.access a k, Replace.access b k)) warm;
      let last = first + (span mod ((3 * sets * ways) + 1)) - 1 in
      let m = Replace.access_range a ~first ~last in
      let m' = ref 0 in
      for k = first to last do
        if not (Replace.access b k) then incr m'
      done;
      let tags r =
        let acc = ref [] in
        Replace.iter r (fun k -> acc := k :: !acc);
        !acc
      in
      m = !m' && tags a = tags b
      && Replace.occupancy a = Replace.occupancy b
      && Replace.evictions a = Replace.evictions b)

(* The direct-mapped reference: one tag per set (-1 = invalid), and each
   key one compare-and-store, with the fill and eviction counts beside
   it.  [Replace] keeps runs of sets instead, so the property above
   compares a direct-mapped table with itself; this one replays random op
   streams against both and compares them after every op. *)
type flat = { tags : int array; mutable filled : int; mutable evicted : int }

let flat_access f key =
  let set = key land (Array.length f.tags - 1) in
  let old = f.tags.(set) in
  if old = key then true
  else begin
    f.tags.(set) <- key;
    if old >= 0 then f.evicted <- f.evicted + 1 else f.filled <- f.filled + 1;
    false
  end

type dm_op = Key of int | Range of int * int | Probe of int | Flush

let pp_dm_op = function
  | Key k -> Printf.sprintf "key %d" k
  | Range (first, last) -> Printf.sprintf "range %d..%d" first last
  | Probe k -> Printf.sprintf "probe %d" k
  | Flush -> "flush"

(* Streams on 1 to 4,096 sets: mostly keys under four high parts, so hits,
   conflicts and merges of runs all occur, and some anywhere below 2^30;
   ranges from one key to 3x the sets, starting anywhere, so they cross
   the wrap and lap the table. *)
let dm_case =
  let open QCheck.Gen in
  let gen =
    int_bound 12 >>= fun sets_exp ->
    let sets = 1 lsl sets_exp in
    let key =
      frequency [ (6, int_bound ((4 * sets) - 1)); (1, int_bound (1 lsl 30)) ]
    in
    let op =
      frequency
        [
          (4, map (fun k -> Key k) key);
          (2, map2 (fun k n -> Range (k, k + n)) key (0 -- (sets - 1)));
          (2, map2 (fun k n -> Range (k, k + n)) key (0 -- ((3 * sets) - 1)));
          (2, map (fun k -> Probe k) key);
          (1, return Flush);
        ]
    in
    map (fun ops -> (sets, ops)) (list_size (1 -- 40) op)
  in
  QCheck.make gen ~print:(fun (sets, ops) ->
      Printf.sprintf "sets=%d [%s]" sets
        (String.concat "; " (List.map pp_dm_op ops)))

let prop_direct_mapped_matches_flat_tags =
  QCheck.Test.make ~name:"direct-mapped Replace equals a flat tag array"
    ~count:200 dm_case (fun (sets, ops) ->
      let r = Replace.create ~sets ~ways:1 in
      let f = { tags = Array.make sets (-1); filled = 0; evicted = 0 } in
      let step n op =
        let same =
          match op with
          | Key k -> Replace.access r k = flat_access f k
          | Range (first, last) ->
            let m = ref 0 in
            for k = first to last do
              if not (flat_access f k) then incr m
            done;
            Replace.access_range r ~first ~last = !m
          | Probe k -> Replace.probe r k = (f.tags.(k land (sets - 1)) = k)
          | Flush ->
            Replace.flush r;
            Array.fill f.tags 0 sets (-1);
            f.filled <- 0;
            true
        in
        let resident = ref [] in
        Replace.iter r (fun k -> resident := k :: !resident);
        let expected = List.filter (fun k -> k >= 0) (Array.to_list f.tags) in
        let fail what =
          QCheck.Test.fail_reportf "op %d (%s): %s" n (pp_dm_op op) what
        in
        if not same then fail "outcome";
        if List.rev !resident <> expected then fail "iter";
        if Replace.occupancy r <> f.filled then fail "occupancy";
        if Replace.evictions r <> f.evicted then fail "evictions"
      in
      List.iteri step ops;
      true)

(* Once a direct-mapped table exists, referencing it allocates nothing:
   ranges shorter and longer than the table, starting anywhere, single
   keys that split and rejoin its runs, and probes.  The tolerance covers
   only the boxed floats the two [Gc.minor_words] reads themselves
   produce. *)
let test_direct_mapped_allocates_nothing () =
  let r = Replace.create ~sets:256 ~ways:1 in
  let misses = ref 0 and hits = ref 0 in
  let step i =
    let first = (i * 97) land 4095 in
    let last = first + (i mod 300) in
    misses := !misses + Replace.access_range r ~first ~last;
    if Replace.access r ((i * 7919) land 2047) then incr hits;
    if Replace.probe r (i land 1023) then incr hits
  in
  for i = 0 to 15 do
    step i
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to 19_999 do
    step i
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16.0 then
    Alcotest.failf "20k direct-mapped steps allocated %.0f minor words" dw;
  check "the loop missed and hit" true (!misses > 0 && !hits > 0)

let test_flush_occupancy () =
  let c = Cache.create (Config.v ()) in
  ignore (Cache.touch_range c ~addr:0 ~len:1024);
  checki "occupancy" 32 (Cache.occupancy c);
  check "resident" true (Cache.resident c 512);
  Cache.flush c;
  checki "flushed" 0 (Cache.occupancy c);
  check "not resident" false (Cache.resident c 512)

let prop_cache_fits_capacity =
  QCheck.Test.make ~name:"occupancy never exceeds line count" ~count:50
    QCheck.(list (int_bound 1_000_000))
    (fun addrs ->
      let c = Cache.create (Config.v ()) in
      List.iter (fun a -> ignore (Cache.access c a)) addrs;
      Cache.occupancy c <= Config.lines (Cache.config c))

let prop_cache_second_access_hits =
  QCheck.Test.make ~name:"immediate re-access always hits" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let c = Cache.create (Config.v ~associativity:4 ()) in
      ignore (Cache.access c addr);
      Cache.access c addr)

(* ---------- Memsys ---------- *)

let test_memsys_stall_accounting () =
  let m = Memsys.create () in
  Memsys.fetch_code m ~addr:0 ~len:6144;
  let c = Memsys.counters m in
  checki "icache misses" 192 c.Memsys.icache_misses;
  checki "stalls" (192 * 20) c.Memsys.stall_cycles;
  Memsys.fetch_code m ~addr:0 ~len:6144;
  let c = Memsys.counters m in
  checki "warm: no more misses" 192 c.Memsys.icache_misses

let test_memsys_write_no_stall () =
  let m = Memsys.create () in
  Memsys.write_data m ~addr:0 ~len:64;
  let c = Memsys.counters m in
  checki "write misses counted" 2 c.Memsys.write_misses;
  checki "no stall for writes" 0 c.Memsys.stall_cycles

let test_memsys_execute_and_time () =
  let m = Memsys.create ~clock_hz:100e6 () in
  Memsys.execute m 1000;
  checki "cycles" 1000 (Memsys.cycles m);
  Alcotest.(check (float 1e-12)) "seconds" 1e-5 (Memsys.seconds m)

let test_memsys_take_counters () =
  let m = Memsys.create () in
  Memsys.read_data m ~addr:0 ~len:32;
  let c1 = Memsys.take_counters m in
  checki "first take" 1 c1.Memsys.dcache_misses;
  let c2 = Memsys.counters m in
  checki "reset" 0 c2.Memsys.dcache_misses;
  (* Cache content preserved: same line still hits. *)
  Memsys.read_data m ~addr:0 ~len:32;
  let c3 = Memsys.counters m in
  checki "still warm" 0 c3.Memsys.dcache_misses

(* The ledger charges without allocating: on a warmed memory system with no
   probe, 80k mixed calls, misses and the prefetch-discounted stall
   included, must not allocate.  The tolerance covers only the boxed floats
   the two [Gc.minor_words] reads themselves produce. *)
let test_memsys_zero_alloc () =
  let m = Memsys.create ~prefetch_discount:0.5 () in
  let step i =
    Memsys.fetch_code m ~addr:((i land 3) * 4096) ~len:6144;
    Memsys.read_data m ~addr:(65536 + ((i land 7) * 2048)) ~len:256;
    Memsys.write_data m ~addr:(131072 + ((i land 15) * 1024)) ~len:64;
    Memsys.execute m 100
  in
  for i = 0 to 15 do
    step i
  done;
  ignore (Memsys.take_counters m);
  let w0 = Gc.minor_words () in
  for i = 0 to 19_999 do
    step i
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16.0 then
    Alcotest.failf "80k memory-system calls allocated %.0f minor words" dw;
  let c = Memsys.counters m in
  check "the loop missed in both caches" true
    (c.Memsys.icache_misses > 0 && c.Memsys.dcache_misses > 0
   && c.Memsys.write_misses > 0);
  checki "execution charged" 2_000_000 c.Memsys.exec_cycles

let test_memsys_cold () =
  let m = Memsys.create () in
  Memsys.read_data m ~addr:0 ~len:32;
  Memsys.cold m;
  ignore (Memsys.take_counters m);
  Memsys.read_data m ~addr:0 ~len:32;
  checki "miss after cold" 1 (Memsys.counters m).Memsys.dcache_misses

let test_memsys_unified () =
  let m =
    Memsys.create
      ~icache:(Config.v ~size_bytes:16384 ())
      ~unified:true ()
  in
  (* Code and data share the cache: a data read can evict code. *)
  Memsys.fetch_code m ~addr:0 ~len:32;
  Memsys.read_data m ~addr:16384 ~len:32 (* conflicts with addr 0 *);
  ignore (Memsys.take_counters m);
  Memsys.fetch_code m ~addr:0 ~len:32;
  checki "data evicted code" 1 (Memsys.counters m).Memsys.icache_misses;
  (* Split caches: no such interference. *)
  let s = Memsys.create () in
  Memsys.fetch_code s ~addr:0 ~len:32;
  Memsys.read_data s ~addr:8192 ~len:32;
  ignore (Memsys.take_counters s);
  Memsys.fetch_code s ~addr:0 ~len:32;
  checki "split unaffected" 0 (Memsys.counters s).Memsys.icache_misses

let test_memsys_prefetch () =
  let full = Memsys.create () in
  let half = Memsys.create ~prefetch_discount:0.5 () in
  Memsys.fetch_code full ~addr:0 ~len:6144;
  Memsys.fetch_code half ~addr:0 ~len:6144;
  let cf = Memsys.counters full and ch = Memsys.counters half in
  checki "same misses" cf.Memsys.icache_misses ch.Memsys.icache_misses;
  (* 192 misses: full = 192*20; half = 20*(1 + 0.5*191) = 1930. *)
  checki "full stall" 3840 cf.Memsys.stall_cycles;
  checki "discounted stall" 1930 ch.Memsys.stall_cycles;
  check "invalid discount rejected" true
    (try
       ignore (Memsys.create ~prefetch_discount:1.5 ());
       false
     with Invalid_argument _ -> true)

(* ---------- Layout ---------- *)

let test_layout_sequential () =
  let l = Layout.sequential ~line_bytes:32 () in
  let a = Layout.alloc l 100 in
  let b = Layout.alloc l 100 in
  checki "first at zero" 0 a.Layout.base;
  checki "rounded to line" 128 a.Layout.len;
  checki "packed" 128 b.Layout.base;
  check "contains" true (Layout.contains a 64);
  check "not contains" false (Layout.contains a 128)

let test_layout_sequential_gap () =
  let l = Layout.sequential ~line_bytes:32 ~gap_bytes:32 () in
  let a = Layout.alloc l 32 in
  let b = Layout.alloc l 32 in
  checki "gap respected" (a.Layout.base + 64) b.Layout.base

let prop_layout_random_aligned =
  QCheck.Test.make ~name:"random layout line-aligned, in-space" ~count:200
    QCheck.(int_range 1 10000)
    (fun len ->
      let rng = Ldlp_sim.Rng.create ~seed:11 in
      let l = Layout.random ~rng ~line_bytes:32 () in
      let r = Layout.alloc l len in
      r.Layout.base mod 32 = 0
      && r.Layout.base >= 0
      && r.Layout.base + r.Layout.len <= 1 lsl 28)

(* ---------- Working_set ---------- *)

let test_working_set_basic () =
  let ws = Working_set.create () in
  Working_set.touch ws ~addr:0 ~len:10;
  Working_set.touch ws ~addr:100 ~len:10;
  checki "bytes" 20 (Working_set.touched_bytes ws);
  checki "lines 32" 2 (Working_set.lines ws ~line_bytes:32);
  checki "bytes in lines" 64 (Working_set.bytes_in_lines ws ~line_bytes:32)

let test_working_set_merge_adjacent () =
  let ws = Working_set.create () in
  Working_set.touch ws ~addr:0 ~len:10;
  Working_set.touch ws ~addr:10 ~len:10;
  Working_set.touch ws ~addr:5 ~len:10;
  checki "merged bytes" 20 (Working_set.touched_bytes ws);
  checki "one line" 1 (Working_set.lines ws ~line_bytes:32)

let test_working_set_shared_line () =
  let ws = Working_set.create () in
  (* Two intervals in the same 32-byte line must count one line. *)
  Working_set.touch ws ~addr:2 ~len:4;
  Working_set.touch ws ~addr:20 ~len:4;
  checki "one shared line" 1 (Working_set.lines ws ~line_bytes:32);
  checki "two 8-byte lines" 2 (Working_set.lines ws ~line_bytes:8)

let test_working_set_union () =
  let a = Working_set.create () and b = Working_set.create () in
  Working_set.touch a ~addr:0 ~len:16;
  Working_set.touch b ~addr:8 ~len:16;
  let u = Working_set.union a b in
  checki "union bytes" 24 (Working_set.touched_bytes u);
  (* Union does not mutate its inputs' observable content. *)
  checki "a unchanged" 16 (Working_set.touched_bytes a);
  checki "b unchanged" 16 (Working_set.touched_bytes b)

(* Reference implementation on byte sets. *)
let naive_lines touches line_bytes =
  let module S = Set.Make (Int) in
  let s =
    List.fold_left
      (fun s (addr, len) ->
        let rec go s i = if i >= addr + len then s else go (S.add i s) (i + 1) in
        go s addr)
      S.empty touches
  in
  S.fold (fun b acc -> S.add (b / line_bytes) acc) s S.empty |> S.cardinal

let prop_working_set_matches_naive =
  QCheck.Test.make ~name:"working set lines match naive byte-set count"
    ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 2000) (int_range 1 100)))
    (fun touches ->
      let ws = Working_set.create () in
      List.iter (fun (addr, len) -> Working_set.touch ws ~addr ~len) touches;
      List.for_all
        (fun lb -> Working_set.lines ws ~line_bytes:lb = naive_lines touches lb)
        [ 4; 8; 16; 32; 64 ])

let prop_working_set_bytes_match_naive =
  QCheck.Test.make ~name:"touched bytes match naive byte-set count" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_bound 2000) (int_range 1 100)))
    (fun touches ->
      let ws = Working_set.create () in
      List.iter (fun (addr, len) -> Working_set.touch ws ~addr ~len) touches;
      Working_set.touched_bytes ws = naive_lines touches 1)

let suite =
  [
    Alcotest.test_case "config defaults" `Quick test_config_defaults;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "direct-mapped hit/miss" `Quick test_direct_mapped_hit_miss;
    Alcotest.test_case "direct-mapped conflict" `Quick test_direct_mapped_conflict;
    Alcotest.test_case "set-associative LRU" `Quick test_set_associative_lru;
    Alcotest.test_case "2-way LRU order" `Quick test_lru_two_way_order;
    Alcotest.test_case "4-way LRU order" `Quick test_lru_four_way_order;
    Alcotest.test_case "touch range" `Quick test_touch_range;
    Alcotest.test_case "touch range wraps" `Quick test_touch_range_wraps;
    QCheck_alcotest.to_alcotest prop_access_range_is_per_key_replay;
    QCheck_alcotest.to_alcotest prop_direct_mapped_matches_flat_tags;
    Alcotest.test_case "direct-mapped Replace allocates nothing" `Quick
      test_direct_mapped_allocates_nothing;
    Alcotest.test_case "flush/occupancy" `Quick test_flush_occupancy;
    QCheck_alcotest.to_alcotest prop_cache_fits_capacity;
    QCheck_alcotest.to_alcotest prop_cache_second_access_hits;
    Alcotest.test_case "memsys stalls" `Quick test_memsys_stall_accounting;
    Alcotest.test_case "memsys writes" `Quick test_memsys_write_no_stall;
    Alcotest.test_case "memsys execute/time" `Quick test_memsys_execute_and_time;
    Alcotest.test_case "memsys take counters" `Quick test_memsys_take_counters;
    Alcotest.test_case "memsys ledger allocates nothing" `Quick
      test_memsys_zero_alloc;
    Alcotest.test_case "memsys cold" `Quick test_memsys_cold;
    Alcotest.test_case "memsys unified" `Quick test_memsys_unified;
    Alcotest.test_case "memsys prefetch" `Quick test_memsys_prefetch;
    Alcotest.test_case "layout sequential" `Quick test_layout_sequential;
    Alcotest.test_case "layout gap" `Quick test_layout_sequential_gap;
    QCheck_alcotest.to_alcotest prop_layout_random_aligned;
    Alcotest.test_case "working set basic" `Quick test_working_set_basic;
    Alcotest.test_case "working set merge" `Quick test_working_set_merge_adjacent;
    Alcotest.test_case "working set shared line" `Quick test_working_set_shared_line;
    Alcotest.test_case "working set union" `Quick test_working_set_union;
    QCheck_alcotest.to_alcotest prop_working_set_matches_naive;
    QCheck_alcotest.to_alcotest prop_working_set_bytes_match_naive;
  ]
