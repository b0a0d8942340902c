(* State-guard tests for the message pool: the [pool_state] discipline
   that makes double and cross-pool releases loud, the LIFO recycling
   that keeps the hot path cache-warm, and the acquire/release ledger
   checked against a naive reference free-list over random traces. *)

open Ldlp_core

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_double_release_raises () =
  let p = Msg.pool () in
  let m = Msg.acquire p ~arrival:0.0 ~size:64 "x" in
  Msg.release p m;
  checkb "second release raises" true
    (try
       Msg.release p m;
       false
     with Invalid_argument _ -> true);
  (* The failed release must not corrupt the ledger. *)
  let s = Msg.pool_stats p in
  checki "released counted once" 1 s.Msg.p_released;
  checki "outstanding back to zero" 0 s.Msg.p_outstanding

let test_heap_message_release_raises () =
  let p = Msg.pool () in
  checkb "releasing a heap message raises" true
    (try
       Msg.release p (Msg.make "heap");
       false
     with Invalid_argument _ -> true)

let test_recycle_lifo () =
  let p = Msg.pool () in
  let a = Msg.acquire p ~arrival:0.0 ~size:1 "a" in
  let b = Msg.acquire p ~arrival:0.0 ~size:1 "b" in
  Msg.release p b;
  Msg.release p a;
  (* Freelist now holds [a] on top of [b]: strictly LIFO, so the next
     two acquires hand back the same records in reverse release order,
     and no new record is created. *)
  let c = Msg.acquire p ~arrival:1.0 ~size:2 "c" in
  checkb "first reacquire is the last released record" true (c == a);
  let d = Msg.acquire p ~arrival:1.0 ~size:2 "d" in
  checkb "second reacquire is the earlier released record" true (d == b);
  checki "no records created beyond the first two" 2
    (Msg.pool_stats p).Msg.p_created;
  (* Recycled records carry fresh identity and fields. *)
  checkb "fresh id on reacquire" true (c.Msg.id <> a.Msg.id || c == a);
  Alcotest.(check string) "payload overwritten" "c" c.Msg.payload

let test_prefilled_pool () =
  let p = Msg.pool ~capacity:4 ~dummy:"-" () in
  let s0 = Msg.pool_stats p in
  checki "prefill counts as created" 4 s0.Msg.p_created;
  let ms = List.init 4 (fun i -> Msg.acquire p ~arrival:0.0 ~size:i "live") in
  checki "no growth while within capacity" 4 (Msg.pool_stats p).Msg.p_created;
  List.iter (Msg.release p) ms;
  (* With a dummy, release scrubs the payload so dead values are not
     pinned by the freelist. *)
  List.iter
    (fun m -> Alcotest.(check string) "payload reset to dummy" "-" m.Msg.payload)
    ms;
  let extra =
    List.init 5 (fun _ -> Msg.acquire p ~arrival:0.0 ~size:0 "more")
  in
  checki "growth past capacity creates exactly one more" 5
    (Msg.pool_stats p).Msg.p_created;
  List.iter (Msg.release p) extra;
  checki "quiescent outstanding" 0 (Msg.pool_stats p).Msg.p_outstanding

(* Reference model: a naive free-list of plain ids plus four counters,
   driven by the same random trace as the real pool.  Steps are
   [true] = acquire, [false] = release one live message (skipped when
   none is live, so traces stay valid by construction). *)
let prop_ledger_vs_reference =
  QCheck.Test.make ~name:"pool_stats ledger matches a naive reference"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 400) bool)
    (fun trace ->
      let p = Msg.pool () in
      let live = ref [] in
      (* reference state *)
      let r_free = ref [] and r_created = ref 0 in
      let r_acquired = ref 0 and r_released = ref 0 in
      List.iter
        (fun is_acquire ->
          if is_acquire then begin
            let m = Msg.acquire p ~arrival:0.0 ~size:8 () in
            live := m :: !live;
            (match !r_free with
            | [] -> incr r_created
            | _ :: tl -> r_free := tl);
            incr r_acquired
          end
          else
            match !live with
            | [] -> ()
            | m :: tl ->
              live := tl;
              Msg.release p m;
              r_free := 0 :: !r_free;
              incr r_released)
        trace;
      let s = Msg.pool_stats p in
      s.Msg.p_created = !r_created
      && s.Msg.p_acquired = !r_acquired
      && s.Msg.p_released = !r_released
      && s.Msg.p_outstanding = !r_acquired - !r_released
      && s.Msg.p_outstanding = List.length !live)

(* Identity safety under recycling: two live pooled messages are never
   the same record, whatever the acquire/release interleaving. *)
let prop_live_records_distinct =
  QCheck.Test.make ~name:"live pooled messages are distinct records"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 200) bool)
    (fun trace ->
      let p = Msg.pool () in
      let live = ref [] in
      List.iter
        (fun is_acquire ->
          if is_acquire then
            live := Msg.acquire p ~arrival:0.0 ~size:0 () :: !live
          else
            match !live with
            | [] -> ()
            | m :: tl ->
              live := tl;
              Msg.release p m)
        trace;
      let rec distinct = function
        | [] -> true
        | m :: tl -> (not (List.memq m tl)) && distinct tl
      in
      distinct !live)

(* Each sharded-storm shard owns its own pool: a release into another
   pool is a bug, not a transfer, and must leave that pool untouched. *)
let test_pool_leak_audit_and_cross_release () =
  let a = Msg.pool ~capacity:4 ~dummy:0 () in
  let b = Msg.pool ~capacity:4 ~dummy:0 () in
  let m = Msg.acquire a ~arrival:0.0 ~size:64 7 in
  checki "outstanding while held" 1 (Msg.pool_stats a).Msg.p_outstanding;
  checkb "cross-pool release raises" true
    (try
       Msg.release b m;
       false
     with Invalid_argument _ -> true);
  checki "victim pool untouched" 0 (Msg.pool_stats b).Msg.p_outstanding;
  Msg.release a m;
  checki "leak-free at quiescence" 0 (Msg.pool_stats a).Msg.p_outstanding

let suite =
  [
    Alcotest.test_case "double release raises" `Quick test_double_release_raises;
    Alcotest.test_case "heap message release raises" `Quick
      test_heap_message_release_raises;
    Alcotest.test_case "recycling is LIFO over the freelist" `Quick
      test_recycle_lifo;
    Alcotest.test_case "prefilled pool ledger" `Quick test_prefilled_pool;
    QCheck_alcotest.to_alcotest prop_ledger_vs_reference;
    QCheck_alcotest.to_alcotest prop_live_records_distinct;
    Alcotest.test_case "per-shard pools: leaks and cross-release" `Quick
      test_pool_leak_audit_and_cross_release;
  ]
