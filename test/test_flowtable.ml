(* Tests for lib/flowtable: the flow study against its naive reference,
   and Flat, the open-addressing int table that the study's store and
   the protocol stacks' live state are kept in. *)

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---------- Study: the flow-table locality figure ---------- *)

(* Every row of the study, at random small configurations, equals a
   replay of the same arrival stream through per-set MRU lists and a
   store that answers each flow with its own key. *)
let prop_study_matches_reference =
  QCheck.Test.make ~name:"study rows = naive per-set MRU reference" ~count:8
    QCheck.small_nat (fun seed ->
      match Ldlp_check.Flows_oracle.run ~seed ~cases:1 with
      | Ok _ -> true
      | Error e -> QCheck.Test.fail_report e)

(* A front cache whose sets would not be a power of two is refused:
   1000 slots direct-mapped, and 2 slots in 4 ways. *)
let test_study_slots_validation () =
  let module Study = Ldlp_flowtable.Study in
  List.iter
    (fun slots ->
      Alcotest.check_raises
        (Printf.sprintf "%d slots" slots)
        (Invalid_argument "Replace.create: sets must be a power of two")
        (fun () ->
          ignore
            (Study.run
               ~config:{ Study.quick with slots; lookups = 64 }
               ~flows:10 ~seed:1 ()
              : Study.row list)))
    [ 1000; 2 ]

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
    QCheck_alcotest.to_alcotest prop_study_matches_reference;
    Alcotest.test_case "study rejects slots that are not a power of two"
      `Quick test_study_slots_validation;
  ]
