(* Tests for the fault-injection subsystem: plan validation and
   description, the deterministic impairment engine (same plan + seed =>
   byte-identical event trace, on any domain count), frame conservation
   through the free/clone hooks, and the reorder window differentially
   against an independent reference replay. *)

open Ldlp_fault

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ---------- Plan ---------- *)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_plan_validation () =
  check "negative drop" true (raises_invalid (fun () -> Plan.v ~drop:(-0.1) ()));
  check "drop=1 outside [0,1)" true (raises_invalid (fun () -> Plan.v ~drop:1.0 ()));
  check "dup=2 rejected" true (raises_invalid (fun () -> Plan.v ~dup:2.0 ()));
  check "negative jitter" true (raises_invalid (fun () -> Plan.v ~jitter:(-1.0) ()));
  check "reorder without window" true
    (raises_invalid (fun () -> Plan.v ~reorder:0.1 ~reorder_window:0 ()));
  check "unsorted down episodes" true
    (raises_invalid (fun () -> Plan.v ~down:[ (2.0, 3.0); (0.0, 1.0) ] ()));
  check "overlapping down episodes" true
    (raises_invalid (fun () -> Plan.v ~down:[ (0.0, 2.0); (1.0, 3.0) ] ()));
  check "empty down episode" true
    (raises_invalid (fun () -> Plan.v ~down:[ (1.0, 1.0) ] ()));
  (* The acceptance-scenario plan of the soak is valid. *)
  ignore
    (Plan.v ~drop:0.05 ~dup:0.02 ~corrupt:0.001 ~reorder:0.1 ~reorder_window:4 ())

let test_plan_none_and_link_up () =
  check "none is none" true (Plan.is_none Plan.none);
  check "v () = none" true (Plan.is_none (Plan.v ()));
  check "down alone is an impairment" false
    (Plan.is_none (Plan.v ~down:[ (1.0, 2.0) ] ()));
  let p = Plan.v ~down:[ (1.0, 2.0); (5.0, 6.0) ] () in
  check "up before" true (Plan.link_up p 0.5);
  check "down at start (inclusive)" false (Plan.link_up p 1.0);
  check "down inside" false (Plan.link_up p 1.5);
  check "up at stop (exclusive)" true (Plan.link_up p 2.0);
  check "down in second episode" false (Plan.link_up p 5.5);
  check "up after" true (Plan.link_up p 10.0)

let test_plan_describe () =
  checks "pristine" "pristine" (Plan.describe Plan.none);
  checks "single field" "drop=5%" (Plan.describe (Plan.v ~drop:0.05 ()));
  checks "acceptance plan" "drop=5% dup=2% corrupt=0.1% reorder=10%/w4"
    (Plan.describe
       (Plan.v ~drop:0.05 ~dup:0.02 ~corrupt:0.001 ~reorder:0.1
          ~reorder_window:4 ()));
  checks "jitter and down" "drop=1% jitter=100us down=1"
    (Plan.describe (Plan.v ~drop:0.01 ~jitter:1e-4 ~down:[ (0.1, 0.2) ] ()))

(* ---------- Plan: host lifecycles ---------- *)

let test_host_validation () =
  check "empty episode" true
    (raises_invalid (fun () -> Plan.host_v ~crash:[ (1.0, 1.0) ] ()));
  check "unsorted episodes" true
    (raises_invalid (fun () -> Plan.host_v ~crash:[ (2.0, 3.0); (0.0, 1.0) ] ()));
  check "overlapping episodes" true
    (raises_invalid (fun () -> Plan.host_v ~crash:[ (0.0, 2.0); (1.0, 3.0) ] ()));
  ignore (Plan.host_v ~crash:[ (0.0, 1.0); (2.0, 3.0) ] ())

let test_host_up_and_describe () =
  check "immortal is none" true (Plan.host_is_none Plan.host_none);
  checks "immortal describe" "immortal" (Plan.describe_host Plan.host_none);
  let h = Plan.host_v ~crash:[ (1.0, 2.0); (5.0, 6.0) ] () in
  check "not none" false (Plan.host_is_none h);
  check "up before" true (Plan.host_up h 0.5);
  check "dead at down_at (inclusive)" false (Plan.host_up h 1.0);
  check "dead inside" false (Plan.host_up h 1.5);
  check "up at up_at (exclusive)" true (Plan.host_up h 2.0);
  check "dead in second episode" false (Plan.host_up h 5.5);
  checks "describe" "crash@1s+1000ms crash@5s+1000ms" (Plan.describe_host h)

let prop_lifecycle_generates_valid_hosts =
  (* Whatever the knobs, every host a lifecycle draw produces must pass
     its own validator — the generator and the validator agree on what a
     well-formed plan is — and stay inside the horizon. *)
  QCheck.Test.make ~name:"lifecycle generates only valid host plans" ~count:200
    QCheck.(
      quad (float_bound_inclusive 1.0) (1 -- 4) (float_bound_inclusive 1.0)
        (pair small_nat (1 -- 32)))
    (fun (victims, episodes, flap, (seed, hosts)) ->
      let horizon = 0.02 in
      let lc =
        Plan.lifecycle ~victims ~episodes ~min_outage:0.001
          ~mean_outage:0.005 ~flap ~seed ~hosts ~horizon ()
      in
      Array.length lc = hosts
      && Array.for_all
           (fun h ->
             Plan.validate_host h;
             List.for_all
               (fun (d, u) -> d >= 0.0 && u > d && d <= horizon)
               h.Plan.crash)
           lc)

let test_lifecycle_deterministic () =
  let draw () =
    Plan.lifecycle ~victims:0.5 ~episodes:2 ~flap:0.25 ~seed:11 ~hosts:24
      ~horizon:0.05 ()
  in
  check "same knobs, same plans" true (draw () = draw ());
  let other =
    Plan.lifecycle ~victims:0.5 ~episodes:2 ~flap:0.25 ~seed:12 ~hosts:24
      ~horizon:0.05 ()
  in
  check "seed-sensitive" false (draw () = other);
  checki "episode count consistent" (Plan.lifecycle_episodes (draw ()))
    (Plan.lifecycle_episodes (draw ()))

(* ---------- Impair: basic behaviour ---------- *)

let chaotic_plan =
  Plan.v ~drop:0.2 ~dup:0.15 ~corrupt:0.1 ~reorder:0.25 ~reorder_window:3
    ~jitter:1e-4 ()

let test_impair_passthrough () =
  let imp = Impair.create ~seed:7 Plan.none in
  let out = List.concat_map (fun i -> Impair.send imp ~now:0.0 i) [ 1; 2; 3 ] in
  Alcotest.(check (list int))
    "frames pass unchanged" [ 1; 2; 3 ]
    (List.map (fun e -> e.Impair.frame) out);
  check "no delay" true (List.for_all (fun e -> e.Impair.delay = 0.0) out);
  let s = Impair.stats imp in
  checki "offered" 3 s.Impair.offered;
  checki "delivered" 3 s.Impair.delivered;
  checki "nothing impaired" 0
    (s.Impair.dropped + s.Impair.duplicated + s.Impair.corrupted
   + s.Impair.reordered + s.Impair.down_dropped)

let test_impair_down_episode () =
  let freed = ref [] in
  let imp =
    Impair.create ~seed:7
      ~free:(fun f -> freed := f :: !freed)
      (Plan.v ~down:[ (1.0, 2.0) ] ())
  in
  checki "up: delivered" 1 (List.length (Impair.send imp ~now:0.5 10));
  checki "down: vanishes" 0 (List.length (Impair.send imp ~now:1.5 11));
  checki "up again" 1 (List.length (Impair.send imp ~now:2.5 12));
  Alcotest.(check (list int)) "down frame freed" [ 11 ] !freed;
  checki "down_dropped" 1 (Impair.stats imp).Impair.down_dropped

let test_impair_conservation () =
  (* Every frame offered is accounted for exactly once: emitted, freed
     (drop/down), or still held for reordering — duplicates add frames. *)
  let freed = ref 0 in
  let imp =
    Impair.create ~seed:42 ~clone:Fun.id
      ~free:(fun _ -> incr freed)
      chaotic_plan
  in
  let emitted = ref 0 in
  for i = 1 to 1000 do
    let out = Impair.send imp ~now:(float_of_int i *. 1e-3) i in
    emitted := !emitted + List.length out
  done;
  let held = Impair.held imp in
  let s = Impair.stats imp in
  checki "offered" 1000 s.Impair.offered;
  checki "emissions counted as delivered" !emitted s.Impair.delivered;
  checki "conservation" (1000 + s.Impair.duplicated)
    (!emitted + !freed + held);
  checki "frees = random drops" s.Impair.dropped !freed;
  check "chaos actually happened" true
    (s.Impair.dropped > 0 && s.Impair.duplicated > 0 && s.Impair.corrupted > 0
   && s.Impair.reordered > 0);
  (* Flush hands back everything still held. *)
  checki "flush returns the held frames" held (List.length (Impair.flush imp));
  checki "nothing held after flush" 0 (Impair.held imp)

let test_impair_corrupt_hook () =
  let imp =
    Impair.create ~seed:3
      ~corrupt:(fun f -> f + 1000)
      (Plan.v ~corrupt:0.5 ())
  in
  let out =
    List.concat_map
      (fun i -> Impair.send imp ~now:0.0 i)
      (List.init 100 (fun i -> i))
  in
  let corrupted = List.filter (fun e -> e.Impair.frame >= 1000) out in
  checki "corrupt hook applied per stat" (Impair.stats imp).Impair.corrupted
    (List.length corrupted);
  check "roughly half" true
    (List.length corrupted > 25 && List.length corrupted < 75)

(* A duplicate is cloned before the original passes [corrupt], which may
   mutate the frame in place (the mesh's does): each copy's corruption is
   its own draw, so some corrupted originals have clean copies. *)
let test_impair_clone_before_corrupt () =
  let imp =
    Impair.create ~seed:5
      ~clone:(fun r -> ref !r)
      ~corrupt:(fun r ->
        r := true;
        r)
      (Plan.v ~dup:0.9 ~corrupt:0.5 ())
  in
  let split = ref 0 in
  for i = 0 to 199 do
    match Impair.send imp ~now:(float_of_int i *. 1e-3) (ref false) with
    | [ a; b ] -> if !(a.Impair.frame) && not !(b.Impair.frame) then incr split
    | _ -> ()
  done;
  check "corrupted original, clean copy" true (!split > 0)

let test_impair_drop_frame () =
  let freed = ref [] in
  let imp =
    Impair.create ~seed:7 ~free:(fun f -> freed := f :: !freed) Plan.none
  in
  Impair.drop_frame imp 99;
  Alcotest.(check (list int)) "freed" [ 99 ] !freed;
  checki "counted dropped" 1 (Impair.stats imp).Impair.dropped

let test_impair_release_due () =
  (* reorder = 0.999 with a seeded rng holds (essentially) every frame;
     release_due after the 50 ms hold timeout returns them oldest first. *)
  let imp =
    Impair.create ~seed:5 (Plan.v ~reorder:0.999 ~reorder_window:100 ())
  in
  let immediate =
    List.concat_map (fun i -> Impair.send imp ~now:(float_of_int i *. 1e-4) i)
      [ 1; 2; 3 ]
  in
  checki "all held" (3 - List.length immediate) (Impair.held imp);
  checki "not due yet" 0 (List.length (Impair.release_due imp ~now:0.005));
  (match Impair.next_deadline imp with
  | Some d -> check "deadline = send + timeout" true (d >= 0.05 && d <= 0.051)
  | None -> Alcotest.fail "no deadline despite held frames");
  let late = Impair.release_due imp ~now:1.0 in
  checki "all due" (3 - List.length immediate) (List.length late);
  checki "drained" 0 (Impair.held imp);
  check "oldest first" true
    (List.map (fun e -> e.Impair.frame) late
    = List.sort compare (List.map (fun e -> e.Impair.frame) late))

(* ---------- Impair: determinism ---------- *)

(* The replayable trace of one (plan, seed) run: every emission with its
   delay, the flush leftovers, and the final stats. *)
let trace seed =
  let imp = Impair.create ~seed ~clone:(fun f -> f + 500) chaotic_plan in
  let events = Buffer.create 256 in
  for i = 1 to 300 do
    List.iter
      (fun e -> Printf.bprintf events "%d@%g;" e.Impair.frame e.Impair.delay)
      (Impair.send imp ~now:(float_of_int i *. 1e-3) i);
    Buffer.add_char events '|'
  done;
  List.iter
    (fun e -> Printf.bprintf events "late:%d;" e.Impair.frame)
    (Impair.release_due imp ~now:10.0);
  let s = Impair.stats imp in
  Printf.bprintf events "d%d dup%d c%d r%d" s.Impair.dropped s.Impair.duplicated
    s.Impair.corrupted s.Impair.reordered;
  Buffer.contents events

let test_impair_deterministic_replay () =
  checks "same seed, same trace" (trace 1996) (trace 1996);
  check "different seed, different trace" true (trace 1996 <> trace 1997)

let test_impair_deterministic_across_domains () =
  (* The engine draws from a private Rng, so the trace cannot depend on
     which domain runs it: the parallel pool at 1 and 3 domains must
     produce identical traces for identical seeds. *)
  let seeds = List.init 6 (fun i -> 100 + i) in
  let seq = Ldlp_par.Pool.map ~domains:1 trace seeds in
  let par = Ldlp_par.Pool.map ~domains:3 trace seeds in
  List.iteri
    (fun i (a, b) -> checks (Printf.sprintf "seed %d" (100 + i)) a b)
    (List.combine seq par)

(* ---------- Reorder window vs a reference replay ---------- *)

(* Independent reference model of the reorder buffer: a held value is
   released after [window] subsequent pushes (oldest first, before the
   pushed value is emitted), or by release_due once its deadline passes. *)
module Ref_reorder = struct
  type 'a t = { window : int; mutable held : ('a * int * float) list }

  let create ~window = { window; held = [] }

  let age t =
    t.held <- List.map (fun (v, c, d) -> (v, c - 1, d)) t.held;
    let out = List.filter (fun (_, c, _) -> c <= 0) t.held in
    t.held <- List.filter (fun (_, c, _) -> c > 0) t.held;
    List.map (fun (v, _, _) -> v) out

  let push t ~hold ~deadline v =
    let out = age t in
    if hold then begin
      t.held <- t.held @ [ (v, t.window, deadline) ];
      out
    end
    else out @ [ v ]

  let release_due t ~now =
    let out = List.filter (fun (_, _, d) -> d <= now) t.held in
    t.held <- List.filter (fun (_, _, d) -> d > now) t.held;
    List.map (fun (v, _, _) -> v) out
end

let test_impair_metrics_scalars () =
  (* The per-cause counters surface as a scalar sheet, and teardown
     flushes are counted. *)
  let imp = Impair.create ~seed:42 chaotic_plan in
  for i = 1 to 500 do
    ignore (Impair.send imp ~now:(float_of_int i *. 1e-3) i)
  done;
  let held = Impair.held imp in
  check "something held" true (held > 0);
  checki "flush returns the held frames" held (List.length (Impair.flush imp));
  let s = Impair.stats imp in
  checki "flushed counter" held s.Impair.flushed;
  let m = Ldlp_obs.Metrics.create ~label:"fault" ~layer_names:[] in
  Impair.metrics_scalars m imp;
  let scalars = Ldlp_obs.Metrics.scalars m in
  let get k =
    match List.assoc_opt k scalars with
    | Some v -> v
    | None -> Alcotest.failf "missing scalar %s" k
  in
  checki "offered scalar" s.Impair.offered (get "fault.offered");
  checki "dropped scalar" s.Impair.dropped (get "fault.dropped");
  checki "duplicated scalar" s.Impair.duplicated (get "fault.duplicated");
  checki "corrupted scalar" s.Impair.corrupted (get "fault.corrupted");
  checki "down scalar" s.Impair.down_dropped (get "fault.down_dropped");
  checki "flushed scalar" s.Impair.flushed (get "fault.flushed");
  checki "still-held scalar" 0 (get "fault.still_held")

let prop_reorder_matches_reference =
  (* Random hold pattern + interleaved release_due calls: the production
     buffer and the reference must agree on every release, in order. *)
  QCheck.Test.make ~name:"reorder window matches reference replay" ~count:300
    QCheck.(
      pair (1 -- 6)
        (list_of_size Gen.(0 -- 40) (pair bool (option (0 -- 20)))))
    (fun (window, steps) ->
      let buf = Impair.Reorder.create ~window in
      let reference = Ref_reorder.create ~window in
      let ok = ref true in
      List.iteri
        (fun i (hold, due_at) ->
          let now = float_of_int i in
          let deadline = now +. 3.0 in
          let a = Impair.Reorder.push buf ~hold ~deadline i in
          let b = Ref_reorder.push reference ~hold ~deadline i in
          if a <> b then ok := false;
          match due_at with
          | Some t ->
            let now = float_of_int t in
            if
              Impair.Reorder.release_due buf ~now
              <> Ref_reorder.release_due reference ~now
            then ok := false
          | None -> ())
        steps;
      !ok && Impair.Reorder.flush buf = List.map (fun (v, _, _) -> v) reference.Ref_reorder.held)

let test_reorder_window_exact () =
  (* A held frame is overtaken by exactly [window] later frames. *)
  let buf = Impair.Reorder.create ~window:2 in
  Alcotest.(check (list int)) "held" []
    (Impair.Reorder.push buf ~hold:true ~deadline:9.0 0);
  Alcotest.(check (list int)) "1 overtakes" [ 1 ]
    (Impair.Reorder.push buf ~hold:false ~deadline:9.0 1);
  Alcotest.(check (list int)) "window expires: held first" [ 0; 2 ]
    (Impair.Reorder.push buf ~hold:false ~deadline:9.0 2);
  checki "empty" 0 (Impair.Reorder.held buf)

let suite =
  [
    Alcotest.test_case "plan validation" `Quick test_plan_validation;
    Alcotest.test_case "plan none / link_up" `Quick test_plan_none_and_link_up;
    Alcotest.test_case "plan describe" `Quick test_plan_describe;
    Alcotest.test_case "host lifecycle validation" `Quick test_host_validation;
    Alcotest.test_case "host up / describe" `Quick test_host_up_and_describe;
    QCheck_alcotest.to_alcotest prop_lifecycle_generates_valid_hosts;
    Alcotest.test_case "lifecycle deterministic" `Quick
      test_lifecycle_deterministic;
    Alcotest.test_case "impair passthrough" `Quick test_impair_passthrough;
    Alcotest.test_case "impair down episode" `Quick test_impair_down_episode;
    Alcotest.test_case "impair conservation" `Quick test_impair_conservation;
    Alcotest.test_case "impair corrupt hook" `Quick test_impair_corrupt_hook;
    Alcotest.test_case "impair clones before corrupting" `Quick
      test_impair_clone_before_corrupt;
    Alcotest.test_case "impair drop_frame" `Quick test_impair_drop_frame;
    Alcotest.test_case "impair release_due" `Quick test_impair_release_due;
    Alcotest.test_case "impair deterministic replay" `Quick
      test_impair_deterministic_replay;
    Alcotest.test_case "impair deterministic across domains" `Quick
      test_impair_deterministic_across_domains;
    Alcotest.test_case "impair metrics scalars + flushed" `Quick
      test_impair_metrics_scalars;
    QCheck_alcotest.to_alcotest prop_reorder_matches_reference;
    Alcotest.test_case "reorder window exact" `Quick test_reorder_window_exact;
  ]
