(* Tests for the mbuf buffer-chain substrate. *)

open Ldlp_buf

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

let pool () = Pool.create ()

let str m = Bytes.to_string (Mbuf.to_bytes m)

let bytes_gen =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:printable (0 -- 600)))

let arb_bytes =
  QCheck.make ~print:(fun b -> Bytes.to_string b) bytes_gen

(* ---------- basic construction ---------- *)

let test_roundtrip_small () =
  let p = pool () in
  let m = Mbuf.of_string p "hello world" in
  checks "roundtrip" "hello world" (str m);
  checki "length" 11 (Mbuf.length m);
  checki "one segment" 1 (Mbuf.nsegs m);
  Mbuf.free p m

let test_roundtrip_large () =
  let p = pool () in
  let data = String.init 5000 (fun i -> Char.chr (i mod 256)) in
  let m = Mbuf.of_bytes p (Bytes.of_string data) in
  checks "large roundtrip" data (str m);
  check "multiple segments" true (Mbuf.nsegs m > 1);
  Mbuf.free p m

let prop_roundtrip =
  QCheck.Test.make ~name:"of_bytes/to_bytes roundtrip" ~count:200 arb_bytes
    (fun b ->
      let p = pool () in
      let m = Mbuf.of_bytes p b in
      let ok = Bytes.equal (Mbuf.to_bytes m) b && Mbuf.length m = Bytes.length b in
      Mbuf.free p m;
      ok)

(* ---------- prepend / adj ---------- *)

let test_prepend () =
  let p = pool () in
  let m = Mbuf.of_string p "payload" in
  let m = Mbuf.prepend m 4 in
  checki "longer" 11 (Mbuf.length m);
  Mbuf.copy_into m ~pos:0 (Bytes.of_string "HDR!") ~src_off:0 ~len:4;
  checks "prepended header" "HDR!payload" (str m);
  Mbuf.free p m

let test_prepend_no_space () =
  let p = pool () in
  let m = Mbuf.of_bytes p ~leading:0 (Bytes.of_string "x") in
  check "raises without leading space" true
    (try
       ignore (Mbuf.prepend m 4);
       false
     with Mbuf.Invalid _ -> true);
  Mbuf.free p m

let test_adj_front () =
  let p = pool () in
  let m = Mbuf.of_string p "headerpayload" in
  Mbuf.adj m 6;
  checks "front trimmed" "payload" (str m);
  Mbuf.free p m

let test_adj_back () =
  let p = pool () in
  let m = Mbuf.of_string p "payloadtrailer" in
  Mbuf.adj m (-7);
  checks "back trimmed" "payload" (str m);
  Mbuf.free p m

let test_adj_across_segments () =
  let p = pool () in
  let data = String.init 500 (fun i -> Char.chr (65 + (i mod 26))) in
  let m = Mbuf.of_bytes p (Bytes.of_string data) in
  Mbuf.adj m 100;
  Mbuf.adj m (-100);
  checks "trimmed across segments" (String.sub data 100 300) (str m);
  Mbuf.free p m

let prop_adj_front_matches_sub =
  QCheck.Test.make ~name:"adj n = drop first n bytes" ~count:200
    QCheck.(pair arb_bytes (int_bound 100))
    (fun (b, n) ->
      let p = pool () in
      let n = min n (Bytes.length b) in
      let m = Mbuf.of_bytes p b in
      Mbuf.adj m n;
      let ok =
        Bytes.equal (Mbuf.to_bytes m) (Bytes.sub b n (Bytes.length b - n))
      in
      Mbuf.free p m;
      ok)

(* ---------- pullup ---------- *)

let test_pullup () =
  let p = pool () in
  let data = String.init 400 (fun i -> Char.chr (48 + (i mod 10))) in
  let m = Mbuf.of_bytes p (Bytes.of_string data) in
  check "fragmented" true (Mbuf.nsegs m > 1);
  let m = Mbuf.pullup p m 100 in
  checks "content preserved" data (str m);
  (* First 100 bytes now contiguous: get_byte walk agrees and first segment
     holds at least 100 bytes. *)
  checki "first byte" (Char.code data.[0]) (Mbuf.get_byte m 0);
  Mbuf.free p m

let test_pullup_too_much () =
  let p = pool () in
  let m = Mbuf.of_string p "short" in
  check "pullup beyond length raises" true
    (try
       ignore (Mbuf.pullup p m 100);
       false
     with Mbuf.Invalid _ -> true);
  Mbuf.free p m

(* ---------- split / concat ---------- *)

let test_split_concat () =
  let p = pool () in
  let m = Mbuf.of_string p "abcdefghij" in
  let front, back = Mbuf.split p m 4 in
  checks "front" "abcd" (str front);
  checks "back" "efghij" (str back);
  let joined = Mbuf.concat front back in
  checks "rejoined" "abcdefghij" (str joined);
  Mbuf.free p joined

let prop_split_concat_roundtrip =
  QCheck.Test.make ~name:"split then concat preserves contents" ~count:200
    QCheck.(pair arb_bytes (int_bound 700))
    (fun (b, n) ->
      let p = pool () in
      let n = min n (Bytes.length b) in
      let m = Mbuf.of_bytes p b in
      let front, back = Mbuf.split p m n in
      let ok =
        Bytes.equal (Mbuf.to_bytes front) (Bytes.sub b 0 n)
        && Bytes.equal (Mbuf.to_bytes back) (Bytes.sub b n (Bytes.length b - n))
      in
      let joined = Mbuf.concat front back in
      let ok = ok && Bytes.equal (Mbuf.to_bytes joined) b in
      Mbuf.free p joined;
      ok)

(* ---------- copy in/out, get_byte, iter ---------- *)

let test_copy_out () =
  let p = pool () in
  let m = Mbuf.of_string p "0123456789" in
  checks "middle slice" "345" (Bytes.to_string (Mbuf.copy_out m ~pos:3 ~len:3));
  Mbuf.free p m

let test_copy_into () =
  let p = pool () in
  let m = Mbuf.of_string p "0123456789" in
  Mbuf.copy_into m ~pos:4 (Bytes.of_string "XY") ~src_off:0 ~len:2;
  checks "overwritten" "0123XY6789" (str m);
  Mbuf.free p m

let test_get_byte_beyond () =
  let p = pool () in
  let m = Mbuf.of_string p "ab" in
  check "beyond end raises" true
    (try
       ignore (Mbuf.get_byte m 2);
       false
     with Mbuf.Invalid _ -> true);
  Mbuf.free p m

let test_fold_segments_skips_empty () =
  let p = pool () in
  let m = Mbuf.of_string p "abcdef" in
  Mbuf.adj m 6;
  checki "no non-empty segments" 0 (Mbuf.fold_segments m (fun n _ _ _ -> n + 1) 0);
  Mbuf.free p m

let test_append_bytes () =
  let p = pool () in
  let m = Mbuf.of_string p "start" in
  Mbuf.append_bytes p m (Bytes.of_string "-more");
  checks "appended" "start-more" (str m);
  Mbuf.free p m

(* ---------- pool accounting ---------- *)

let test_pool_stats () =
  let p = pool () in
  let m1 = Mbuf.get p in
  let m2 = Mbuf.get_cluster p in
  let s = Pool.stats p in
  checki "small in use" 1 s.Pool.small_in_use;
  checki "cluster in use" 1 s.Pool.cluster_in_use;
  Mbuf.free p m1;
  Mbuf.free p m2;
  let s = Pool.stats p in
  checki "all freed (small)" 0 s.Pool.small_in_use;
  checki "all freed (cluster)" 0 s.Pool.cluster_in_use;
  checki "peak small" 1 s.Pool.peak_small

let test_pool_reuse () =
  let p = pool () in
  let m = Mbuf.get p in
  Mbuf.free p m;
  let _m2 = Mbuf.get p in
  let s = Pool.stats p in
  checki "two allocs" 2 s.Pool.small_allocs;
  checki "one live" 1 s.Pool.small_in_use

let prop_free_balances =
  QCheck.Test.make ~name:"alloc/free balance for arbitrary chains" ~count:200
    arb_bytes (fun b ->
      let p = pool () in
      let m = Mbuf.of_bytes p b in
      Mbuf.free p m;
      let s = Pool.stats p in
      s.Pool.small_in_use = 0 && s.Pool.cluster_in_use = 0)

(* Steady-state allocation: once the free list is warm, an alloc/release
   pair touches no heap, and an mbuf cycle of a 40 B frame allocates only
   its one 6-word mbuf record.  The tolerance covers only the boxed floats
   the two [Gc.minor_words] reads themselves produce. *)
let cycles = 10_000

let test_pool_cycle_zero_alloc () =
  let p = pool () in
  Pool.release_small p (Pool.alloc_small p);
  let w0 = Gc.minor_words () in
  for _ = 1 to cycles do
    Pool.release_small p (Pool.alloc_small p)
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > 16.0 then
    Alcotest.failf "%d alloc_small/release_small pairs allocated %.0f minor words"
      cycles dw

let test_mbuf_cycle_alloc () =
  let p = pool () in
  let frame = Bytes.make 40 'f' in
  Mbuf.free p (Mbuf.of_bytes p frame);
  let w0 = Gc.minor_words () in
  for _ = 1 to cycles do
    Mbuf.free p (Mbuf.of_bytes p frame)
  done;
  let dw = Gc.minor_words () -. w0 in
  if dw > float_of_int (6 * cycles) +. 16.0 then
    Alcotest.failf "%d of_bytes/free cycles of a 40 B frame allocated %.1f words each"
      cycles (dw /. float_of_int cycles)

(* The chain copies every received segment's socket-buffer fill and
   every header write go through: walking a multi-segment chain must not
   allocate a closure or an option per call. *)
let test_chain_copies_zero_alloc () =
  let p = pool () in
  let m =
    Mbuf.concat (Mbuf.of_bytes p (Bytes.make 100 'a')) (Mbuf.of_bytes p (Bytes.make 300 'b'))
  in
  check "spans several mbufs" true (Mbuf.nsegs m >= 3);
  let dst = Bytes.create 400 in
  Mbuf.blit_to_bytes m ~pos:0 dst ~dst_off:0 ~len:400;
  let w0 = Gc.minor_words () in
  for i = 1 to cycles do
    Mbuf.blit_to_bytes m ~pos:(i land 63) dst ~dst_off:0 ~len:300;
    Mbuf.copy_into m ~pos:(i land 63) dst ~src_off:0 ~len:300
  done;
  let dw = Gc.minor_words () -. w0 in
  Mbuf.free p m;
  if dw > 16.0 then
    Alcotest.failf
      "%d blit_to_bytes/copy_into pairs over a chain allocated %.0f minor words" cycles dw

let suite =
  [
    Alcotest.test_case "roundtrip small" `Quick test_roundtrip_small;
    Alcotest.test_case "roundtrip large" `Quick test_roundtrip_large;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "prepend" `Quick test_prepend;
    Alcotest.test_case "prepend no space" `Quick test_prepend_no_space;
    Alcotest.test_case "adj front" `Quick test_adj_front;
    Alcotest.test_case "adj back" `Quick test_adj_back;
    Alcotest.test_case "adj across segments" `Quick test_adj_across_segments;
    QCheck_alcotest.to_alcotest prop_adj_front_matches_sub;
    Alcotest.test_case "pullup" `Quick test_pullup;
    Alcotest.test_case "pullup too much" `Quick test_pullup_too_much;
    Alcotest.test_case "split/concat" `Quick test_split_concat;
    QCheck_alcotest.to_alcotest prop_split_concat_roundtrip;
    Alcotest.test_case "copy out" `Quick test_copy_out;
    Alcotest.test_case "copy into" `Quick test_copy_into;
    Alcotest.test_case "get_byte beyond" `Quick test_get_byte_beyond;
    Alcotest.test_case "iter skips empty" `Quick test_fold_segments_skips_empty;
    Alcotest.test_case "append bytes" `Quick test_append_bytes;
    Alcotest.test_case "pool stats" `Quick test_pool_stats;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    QCheck_alcotest.to_alcotest prop_free_balances;
    Alcotest.test_case "pool cycle allocates nothing" `Quick test_pool_cycle_zero_alloc;
    Alcotest.test_case "mbuf cycle allocates one record" `Quick test_mbuf_cycle_alloc;
    Alcotest.test_case "chain copies allocate nothing" `Quick
      test_chain_copies_zero_alloc;
  ]
