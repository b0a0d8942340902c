(* Tests for the unified flow table: QCheck laws over the exact backing
   store, the LDLP batch path, the seeded eviction stream, and the
   per-domain ownership tripwire. *)

module Ft = Ldlp_flowtable.Flowtable

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let schemes = Ft.all_schemes

(* Interpret integer triples as table ops against a plain Hashtbl
   reference, failing on any delivered-state divergence; returns the
   table, the reference and an order-sensitive digest of everything the
   lookups delivered. *)
let interp ?(slots = 64) scheme ops =
  let t = Ft.create ~scheme ~slots ~name:"qcheck" () in
  let reference : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let digest = ref 0 in
  List.iter
    (fun (tag, k, v) ->
      let k = k land 1023 in
      match tag land 3 with
      | 0 ->
        Ft.insert t k v;
        Hashtbl.replace reference k v
      | 1 ->
        Ft.remove t k;
        Hashtbl.remove reference k
      | _ ->
        let got = Ft.lookup t k in
        if got <> Hashtbl.find_opt reference k then
          QCheck.Test.fail_reportf "%s: lookup %d diverges from reference"
            (Ft.scheme_name scheme) k;
        digest := (!digest * 1000003) + Hashtbl.hash got)
    ops;
  (t, reference, !digest)

let op_triple = QCheck.(triple small_int small_int small_int)

(* Insert/lookup/remove roundtrips are exact under every scheme, and the
   stat ledger obeys its conservation laws whatever the op mix. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"exact roundtrips + conservation, every scheme"
    ~count:100
    QCheck.(list op_triple)
    (fun ops ->
      List.for_all
        (fun scheme ->
          let t, reference, _ = interp scheme ops in
          let s = Ft.stats t in
          Ft.length t = Hashtbl.length reference
          && s.Ft.found + s.Ft.missing = s.Ft.lookups
          && s.Ft.model_hits + s.Ft.model_misses
             = s.Ft.lookups + s.Ft.inserts + s.Ft.removes
          && s.Ft.model_evictions <= s.Ft.model_misses)
        schemes)

(* The front cache is a cost model only: delivered states are identical
   across schemes (exactness by construction). *)
let prop_scheme_independent =
  QCheck.Test.make ~name:"delivered states are scheme-independent" ~count:100
    QCheck.(list op_triple)
    (fun ops ->
      match
        List.map
          (fun scheme ->
            let _, _, d = interp scheme ops in
            d)
          schemes
      with
      | [] -> true
      | d :: rest -> List.for_all (( = ) d) rest)

(* The LDLP batch path reorders only the modeled accesses, never the
   delivered results. *)
let prop_batch_matches_unsorted =
  QCheck.Test.make ~name:"batch-sorted lookup = one-at-a-time lookup"
    ~count:100
    QCheck.(pair (list op_triple) (list small_int))
    (fun (ops, keys) ->
      let keys = Array.of_list (List.map (fun k -> k land 1023) keys) in
      List.for_all
        (fun scheme ->
          let t, _, _ = interp scheme ops in
          Ft.lookup_batch t keys = Array.map (fun k -> Ft.lookup t k) keys)
        schemes)

(* A seeded workload produces the same modeled hit/miss/eviction counts
   on every replay — the eviction stream is a function of the seed. *)
let eviction_counts ~seed scheme =
  let module R = Ldlp_sim.Rng in
  let rng = R.create ~seed in
  let t = Ft.create ~scheme ~slots:64 ~name:"evict" () in
  for k = 0 to 255 do
    Ft.insert t k (k * 7)
  done;
  Ft.flush_cache t;
  Ft.reset_stats t;
  for _ = 1 to 2048 do
    ignore (Ft.lookup t (R.int rng 256))
  done;
  let s = Ft.stats t in
  (s.Ft.model_hits, s.Ft.model_misses, s.Ft.model_evictions)

let prop_seeded_eviction =
  QCheck.Test.make ~name:"eviction stream is seed-deterministic" ~count:50
    QCheck.small_int (fun seed ->
      List.for_all
        (fun scheme ->
          let a = eviction_counts ~seed scheme in
          let b = eviction_counts ~seed scheme in
          let _, misses, evictions = a in
          (* 256 hot keys over 64 modeled slots must actually evict. *)
          a = b && misses > 0 && evictions > 0)
        schemes)

(* ---------- Domains ---------- *)

(* Each worker builds its own domain-local table (the shard discipline)
   and replays a per-index seeded workload; the merged result must not
   depend on the worker count. *)
let domain_run ~domains =
  Ldlp_par.Pool.map ~domains
    (fun i ->
      let module R = Ldlp_sim.Rng in
      let rng = R.create ~seed:(41 + i) in
      let t = Ft.create ~slots:128 ~name:(Printf.sprintf "dom-%d" i) () in
      let digest = ref 0 in
      for k = 0 to 511 do
        Ft.insert t k (k * 3)
      done;
      for _ = 1 to 4096 do
        let k = R.int rng 768 in
        digest := (!digest * 1000003) + Hashtbl.hash (Ft.lookup t k)
      done;
      let s = Ft.stats t in
      (!digest, s.Ft.model_hits, s.Ft.model_misses, s.Ft.model_evictions))
    (List.init 6 Fun.id)

let test_domains_identical () =
  check "1 domain = 3 domains" true
    (domain_run ~domains:1 = domain_run ~domains:3)

(* Cross-domain access to a claimed table raises — the same tripwire
   discipline as Msg pools, so a shard can never silently read another
   shard's flow state. *)
let test_ownership_tripwire () =
  let t : (int, int) Ft.t = Ft.create ~name:"tripwire" () in
  Ft.insert t 1 10;
  check "first guarded access claims an owner" true (Ft.owner t <> None);
  (match
     Domain.join
       (Domain.spawn (fun () ->
            match Ft.lookup t 1 with
            | _ -> Error "cross-domain access did not raise"
            | exception Invalid_argument _ -> Ok ()))
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check "owner still works after the tripwire fired" true
    (Ft.lookup t 1 = Some 10)

(* ---------- Units ---------- *)

let test_create_validation () =
  Alcotest.check_raises "non-pow2 slots"
    (Invalid_argument "Flowtable.create: slots must be a power of two")
    (fun () -> ignore (Ft.create ~slots:1000 ~name:"bad" () : (int, int) Ft.t));
  Alcotest.check_raises "indivisible associativity"
    (Invalid_argument "Flowtable.create: slots not divisible by associativity")
    (fun () ->
      ignore
        (Ft.create ~scheme:(Ft.Set_assoc 3) ~slots:64 ~name:"bad" ()
          : (int, int) Ft.t))

let test_flush_preserves_backing () =
  let t = Ft.create ~name:"flush" () in
  Ft.insert t 5 50;
  Ft.flush_cache t;
  check "backing survives a cache flush" true (Ft.lookup t 5 = Some 50);
  let s = Ft.stats t in
  (* Insert missed cold, then the post-flush lookup missed again. *)
  checki "both guarded ops modeled as misses" 2 s.Ft.model_misses

(* ---------- Flat: the open-addressing int table ---------- *)

module Flat = Ldlp_flowtable.Flat

(* The first [n] keys from 0 up whose home in a fresh table is [home].
   A fresh table has 64 slots: probes for keys homed at slot 63 wrap past
   the array's end into the cluster that keys homed at slot 0 start. *)
let keys_homed ~home n =
  let t = Flat.create () in
  let rec go k acc n =
    if n = 0 then List.rev acc
    else if Flat.home t k = home then go (k + 1) (k :: acc) (n - 1)
    else go (k + 1) acc n
  in
  go 0 [] n

(* Keys for the differential: six that wrap, four that start at slot 0,
   four that differ only above bit 48, and 46 more, so that more than
   half of a fresh table's 64 slots fill and it doubles. *)
let flat_keys =
  Array.of_list
    (keys_homed ~home:63 6 @ keys_homed ~home:0 4
    @ List.init 4 (fun i -> ((i + 1) lsl 48) lor 3)
    @ List.init 46 (fun i -> (1 lsl 40) lor i))

(* Random add/find/remove sequences over [flat_keys] agree with a
   [Stdlib.Hashtbl]: after every op, each key is found exactly when the
   reference binds it, with the reference's value.  Ops add twice as
   often as they remove, so most sequences pass 32 live keys and grow
   the table between removals. *)
let prop_flat_matches_hashtbl =
  QCheck.Test.make ~name:"flat table = Hashtbl on random add/find/remove"
    ~count:200
    QCheck.(
      list_of_size
        Gen.(100 -- 400)
        (triple (int_bound 3) (int_bound (Array.length flat_keys - 1)) small_int))
    (fun ops ->
      let t = Flat.create () in
      let reference = Hashtbl.create 16 in
      List.for_all
        (fun (op, i, v) ->
          let k = flat_keys.(i) in
          (match op with
          | 0 | 1 ->
            Flat.add t k v;
            Hashtbl.replace reference k v
          | 2 ->
            Flat.remove t k;
            Hashtbl.remove reference k
          | _ -> ());
          Flat.length t = Hashtbl.length reference
          && Array.for_all
               (fun k ->
                 let slot = Flat.find t k in
                 match Hashtbl.find_opt reference k with
                 | None -> slot = -1
                 | Some v -> slot >= 0 && Flat.value t slot = v)
               flat_keys)
        ops)

(* Removing inside a cluster that wraps past the end: three keys homed at
   the last slot fill it and spill into slots 0 and 1, a key homed at 0
   lands behind them, and removing the first must move the rest back. *)
let test_flat_wrapping_removal () =
  let t = Flat.create () in
  let wrap = keys_homed ~home:63 3 and start = List.hd (keys_homed ~home:0 1) in
  List.iteri (fun i k -> Flat.add t k i) (wrap @ [ start ]);
  checki "64 slots" 64 (Flat.slots t);
  Alcotest.(check (list int))
    "one cluster across the end" [ 63; 0; 1; 2 ]
    (List.map (Flat.find t) (wrap @ [ start ]));
  Flat.remove t (List.hd wrap);
  checki "removed" (-1) (Flat.find t (List.hd wrap));
  Alcotest.(check (list int))
    "the rest moved back" [ 63; 0; 1 ]
    (List.map (Flat.find t) (List.tl wrap @ [ start ]));
  List.iteri
    (fun i k -> checki "values kept" (i + 1) (Flat.value t (Flat.find t k)))
    (List.tl wrap @ [ start ]);
  checki "three left" 3 (Flat.length t);
  checki "absent" (-1) (Flat.find t 12345);
  checki "negative keys are absent" (-1) (Flat.find t (-1));
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Flat.add: negative key") (fun () -> Flat.add t (-5) 0)

(* Keys that differ only above bit [bit] spread over the slots: many
   distinct homes and short probes.  Masking a multiplicative hash's low
   bits sends all of them to one home, whose cluster then takes thousands
   of probes. *)
let spread ~bit =
  let n = 4096 in
  let t = Flat.create () in
  let keys = List.init n (fun i -> (i lsl bit) lor 0x5A5A) in
  List.iteri (fun i k -> Flat.add t k i) keys;
  let mask = Flat.slots t - 1 in
  let homes = Hashtbl.create n in
  let worst =
    List.fold_left
      (fun worst k ->
        Hashtbl.replace homes (Flat.home t k) ();
        Int.max worst ((Flat.find t k - Flat.home t k) land mask))
      0 keys
  in
  check
    (Printf.sprintf "keys above bit %d: %d of %d homes distinct" bit
       (Hashtbl.length homes) n)
    true
    (Hashtbl.length homes >= n / 2);
  check
    (Printf.sprintf "keys above bit %d: longest displacement %d" bit worst)
    true (worst < 32)

let test_flat_spreads_high_bits () =
  spread ~bit:24;
  spread ~bit:48

let suite =
  [
    Alcotest.test_case "flat removal in a wrapping cluster" `Quick
      test_flat_wrapping_removal;
    Alcotest.test_case "flat spreads keys differing in high bits" `Quick
      test_flat_spreads_high_bits;
    QCheck_alcotest.to_alcotest prop_flat_matches_hashtbl;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "flush keeps backing store" `Quick
      test_flush_preserves_backing;
    Alcotest.test_case "ownership tripwire" `Quick test_ownership_tripwire;
    Alcotest.test_case "1-domain = 3-domain replay" `Quick
      test_domains_identical;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_scheme_independent;
    QCheck_alcotest.to_alcotest prop_batch_matches_unsorted;
    QCheck_alcotest.to_alcotest prop_seeded_eviction;
  ]
