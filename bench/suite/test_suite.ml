(* Unit and property tests of the benchmark's own machinery: the latency
   recorder, the schedule generator, the open loops' clock and the result
   JSON. *)

open Ldlp_bench_suite

(* Nearest-rank percentile straight from its definition: the smallest
   sample with at least permille/1000 of the samples at or below it. *)
let reference_percentile samples permille =
  let sorted = List.sort compare samples in
  let n = List.length sorted in
  List.find
    (fun x ->
      let at_or_below = List.length (List.filter (fun y -> y <= x) sorted) in
      at_or_below * 1000 >= permille * n)
    sorted

let percentile_matches_reference =
  QCheck.Test.make ~count:500 ~name:"Lat.percentile = sorted-list reference"
    QCheck.(pair (list_of_size Gen.(1 -- 300) (int_range 0 1_000_000)) (int_range 1 1000))
    (fun (samples, permille) ->
      let lat = Lat.create 4 in
      List.iter (Lat.add lat) samples;
      Lat.count lat = List.length samples
      && Lat.percentile (Lat.sorted lat) ~permille = reference_percentile samples permille)

let quartiles_match_python () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Lat.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; m; q3 ];
  let q1, m, q3 = Lat.quartiles [| 3.; 1.; 2. |] in
  Alcotest.(check (list (float 1e-12))) "three values" [ 1.; 2.; 3. ] [ q1; m; q3 ]

let calls seed phase =
  Gen.calls ~seed ~phase ~rate:60_000. ~ncalls:500 ~hold_ns:2_000_000

let rpcs seed phase = Gen.rpcs ~seed ~phase ~rate:40_000. ~n:500 ~conns:64

let schedules_are_pure () =
  let same what a b = Alcotest.(check string) what (Gen.digest a) (Gen.digest b) in
  let differ what a b =
    Alcotest.(check bool) what true (Gen.digest a <> Gen.digest b)
  in
  same "calls: same seed, same bytes" (calls 1996 "light") (calls 1996 "light");
  same "rpcs: same seed, same bytes" (rpcs 1996 "light") (rpcs 1996 "light");
  differ "calls: seeds 1996 and 7 differ" (calls 1996 "light") (calls 7 "light");
  differ "rpcs: seeds 1996 and 7 differ" (rpcs 1996 "light") (rpcs 7 "light");
  differ "calls: phases differ" (calls 1996 "light") (calls 1996 "heavy")

let calls_are_well_formed () =
  let c = calls 1996 "heavy" in
  let n = Gen.frames c in
  Alcotest.(check int) "three messages per call plus an ack per eight" (1500 + 187) n;
  for i = 1 to n - 1 do
    if c.Gen.due_ns.(i) < c.Gen.due_ns.(i - 1) then Alcotest.fail "due times not sorted"
  done;
  (* Each Q.93B frame decodes, and per call SETUP < CONNECT_ACK < RELEASE. *)
  let seen = Hashtbl.create 500 in
  for i = 0 to n - 1 do
    if Bytes.get c.Gen.signalling i = '\001' then begin
      let off = c.Gen.off.(i) + 1 + Ldlp_sigproto.Sscop.header_bytes in
      let len = c.Gen.off.(i + 1) - off in
      match Ldlp_sigproto.Sigmsg.decode_sub c.Gen.slab off len with
      | Error _ -> Alcotest.fail "undecodable message"
      | Ok m ->
        let before = Option.value (Hashtbl.find_opt seen m.Ldlp_sigproto.Sigmsg.call_ref) ~default:[] in
        Hashtbl.replace seen m.Ldlp_sigproto.Sigmsg.call_ref (m.Ldlp_sigproto.Sigmsg.typ :: before)
    end
  done;
  Hashtbl.iter
    (fun _ typs ->
      if List.rev typs <> Ldlp_sigproto.Sigmsg.[ Setup; Connect_ack; Release ] then
        Alcotest.fail "call lifecycle out of order")
    seen;
  Alcotest.(check int) "every call present" 500 (Hashtbl.length seen)

(* The stacks see only the generated frames: the same schedule gives the
   same outcome whatever the process's other random state. *)
let stack_sees_only_frames () =
  let c = calls 1996 "sat" in
  let outcome () =
    let out = Spec.create () in
    ignore (Wl_sig.closed out c);
    (out.Spec.ok, out.Spec.attempted, out.Spec.failed)
  in
  Random.init 1;
  let a = outcome () in
  Random.init 7;
  let b = outcome () in
  Alcotest.(check bool) "checks pass" true (let ok, _, _ = a in ok);
  Alcotest.(check bool) "same outcome" true (a = b)

(* The open loops' clock jumps over idle time, never runs backwards, and
   advances by busy wall time over the host factor. *)
let vclock_counts_busy_time () =
  let vt = Spec.Vclock.create ~factor:2. in
  Spec.Vclock.idle_until vt 1_000_000_000;
  let w0 = Clock.now_ns () in
  let t = Spec.Vclock.start vt in
  Alcotest.(check int) "jumps to the due time" 1_000_000_000 t;
  while Clock.now_ns () - w0 < 1_000_000 do
    ()
  done;
  Spec.Vclock.stop vt;
  let busy = Clock.now_ns () - w0 in
  Spec.Vclock.idle_until vt 0;
  let t' = Spec.Vclock.start vt in
  Alcotest.(check bool) "half the busy wall time at factor 2" true
    (t' - t >= 500_000 && t' - t <= (busy / 2) + 1)

let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("correct", Json.Bool true);
        ("attempted", Json.Num 1000.);
        ("metrics", Json.Obj [ ("lat_p50_us.light", Json.Obj [ ("value", Json.Num 1.2034); ("unit", Json.Str "us") ]) ]);
        ("list", Json.Arr [ Json.Null; Json.Num (-2.5e-7); Json.Str "a\"b" ]);
      ]
  in
  Alcotest.(check bool) "parse (to_string v) = v" true (Json.parse (Json.to_string v) = v)

let () =
  Alcotest.run "bench-suite"
    [
      ( "lat",
        [
          QCheck_alcotest.to_alcotest percentile_matches_reference;
          Alcotest.test_case "quartiles match Python" `Quick quartiles_match_python;
        ] );
      ( "gen",
        [
          Alcotest.test_case "schedules are pure functions of the seed" `Quick schedules_are_pure;
          Alcotest.test_case "call schedules are well formed" `Quick calls_are_well_formed;
          Alcotest.test_case "stacks see only the frames" `Quick stack_sees_only_frames;
        ] );
      ("clock", [ Alcotest.test_case "busy-time clock" `Quick vclock_counts_busy_time ]);
      ("json", [ Alcotest.test_case "roundtrip" `Quick json_roundtrip ]);
    ]
