(* Tests for the UNI signalling endpoint: Q.93B call control over
   assured-mode SSCOP, including the T303/T308 supervision timers.  Two
   endpoints are wired back-to-back through a (possibly lossy) in-memory
   link. *)

open Ldlp_sigproto

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* Exchange frames between two endpoints until quiescent; returns all
   events seen on each side.  [drop] decides per-frame loss. *)
let splice ?(drop = fun _ -> false) ~now a b out_a =
  let events_a = ref [] and events_b = ref [] in
  let rec go dir (o : Uni.outcome) =
    let src_events, dst =
      match dir with `A2b -> (events_a, b) | `B2a -> (events_b, a)
    in
    src_events := !src_events @ o.Uni.events;
    List.iter
      (fun frame ->
        if not (drop frame) then begin
          let o' = Uni.on_wire dst ~now frame in
          go (match dir with `A2b -> `B2a | `B2a -> `A2b) o'
        end)
      o.Uni.to_wire
  in
  go `A2b out_a;
  (!events_a, !events_b)

let linked () =
  let a = Uni.create () and b = Uni.create () in
  let ea, eb = splice ~now:0.0 a b (Uni.link_up a ~now:0.0) in
  check "a link up" true (List.mem Uni.Link_up ea);
  check "b link up" true (List.mem Uni.Link_up eb);
  check "both ready" true (Uni.link_ready a && Uni.link_ready b);
  (a, b)

let test_link_establishment () = ignore (linked ())

let test_call_setup_and_answer () =
  let a, b = linked () in
  let out = Result.get_ok (Uni.originate a ~now:0.1 ~call_ref:7 [ Ie.called_party "b" ]) in
  let _, eb = splice ~now:0.1 a b out in
  (match List.find_opt (function Uni.Call_offered _ -> true | _ -> false) eb with
  | Some (Uni.Call_offered (7, ies)) ->
    check "IEs carried" true (List.exists (fun ie -> ie.Ie.id = Ie.id_called_party) ies)
  | _ -> Alcotest.fail "no offer");
  (* B answers. *)
  let out_b = Result.get_ok (Uni.accept b ~now:0.2 ~call_ref:7) in
  let eb2, ea2 = splice ~now:0.2 b a out_b in
  check "a connected" true (List.mem (Uni.Call_connected 7) ea2);
  check "b connected" true (List.mem (Uni.Call_connected 7) eb2);
  check "a call active" true (Uni.call_state a ~call_ref:7 = Some Fsm.Active);
  check "b call active" true (Uni.call_state b ~call_ref:7 = Some Fsm.Active)

let connected_pair () =
  let a, b = linked () in
  let out = Result.get_ok (Uni.originate a ~now:0.1 ~call_ref:7 [ Ie.called_party "b" ]) in
  ignore (splice ~now:0.1 a b out);
  let out_b = Result.get_ok (Uni.accept b ~now:0.2 ~call_ref:7) in
  ignore (splice ~now:0.2 b a out_b);
  (a, b)

let test_call_release () =
  let a, b = connected_pair () in
  let out = Result.get_ok (Uni.hangup a ~now:1.0 ~call_ref:7) in
  let ea, eb = splice ~now:1.0 a b out in
  check "a released" true (List.mem (Uni.Call_released 7) ea);
  check "b released" true (List.mem (Uni.Call_released 7) eb);
  checki "a table empty" 0 (Uni.active_calls a);
  checki "b table empty" 0 (Uni.active_calls b)

let test_originate_requires_link () =
  let a = Uni.create () in
  match Uni.originate a ~now:0.0 ~call_ref:1 [] with
  | Error `Link_down -> ()
  | _ -> Alcotest.fail "expected Link_down"

let test_busy_call_ref () =
  let a, b = linked () in
  ignore b;
  ignore (Result.get_ok (Uni.originate a ~now:0.0 ~call_ref:3 []));
  match Uni.originate a ~now:0.0 ~call_ref:3 [] with
  | Error `Busy_ref -> ()
  | _ -> Alcotest.fail "expected Busy_ref"

let test_t303_retransmits_then_fails () =
  let a, b = linked () in
  ignore b;
  (* SETUP vanishes: drop everything A sends from now on. *)
  let out = Result.get_ok (Uni.originate a ~now:0.0 ~call_ref:9 []) in
  ignore out.Uni.to_wire;
  (* First T303 expiry: SETUP retransmitted (also dropped). *)
  let rec drive _now seen_retransmit =
    match Uni.next_deadline a with
    | None -> Alcotest.fail "deadline disappeared before failure"
    | Some d ->
      let o = Uni.tick a ~now:d in
      if List.exists (function Uni.Call_failed (9, _) -> true | _ -> false)
           o.Uni.events
      then seen_retransmit
      else
        drive d (seen_retransmit || o.Uni.to_wire <> [])
  in
  let retransmitted = drive 0.0 false in
  check "setup was retransmitted before giving up" true retransmitted;
  checki "call cleared" 0 (Uni.active_calls a)

(* Two calls whose T303 timers expire at one instant fail in ascending
   call-reference order, whatever order the call table keeps them in. *)
let test_expiry_order () =
  let a, b = linked () in
  ignore b;
  List.iter
    (fun call_ref -> ignore (Result.get_ok (Uni.originate a ~now:0.0 ~call_ref [])))
    [ 2; 3 ];
  let rec drive n =
    if n > 40 then Alcotest.fail "calls never failed"
    else
      match Uni.next_deadline a with
      | None -> Alcotest.fail "deadline disappeared before failure"
      | Some d -> (
        match
          List.filter_map
            (function Uni.Call_failed (r, _) -> Some r | _ -> None)
            (Uni.tick a ~now:d).Uni.events
        with
        | [] -> drive (n + 1)
        | failed -> failed)
  in
  Alcotest.(check (list int)) "failed in call-reference order" [ 2; 3 ] (drive 0);
  checki "calls cleared" 0 (Uni.active_calls a)

let test_t303_cancelled_by_response () =
  let a, b = connected_pair () in
  ignore b;
  (* Connected: no Q.93B supervision timer may remain on A's call.  (The
     SSCOP layer may still hold a poll timer; advancing past T303 must not
     fail the call.) *)
  let rec advance _now n =
    if n > 10 then ()
    else
      match Uni.next_deadline a with
      | None -> ()
      | Some d when d > 100.0 -> ()
      | Some d ->
        let o = Uni.tick a ~now:d in
        check "no call failure after connect" true
          (not
             (List.exists
                (function Uni.Call_failed _ -> true | _ -> false)
                o.Uni.events));
        advance d (n + 1)
  in
  advance 1.0 0;
  check "still active" true (Uni.call_state a ~call_ref:7 = Some Fsm.Active)

let test_sscop_recovers_lost_setup () =
  (* Unlike raw Q.93B, the assured SSCOP link retransmits a lost SD frame
     itself: drop the first copy, let the poll recover it, and the call
     still completes without T303 firing. *)
  let a, b = linked () in
  let first = ref true in
  let drop _ =
    if !first then begin
      first := false;
      true
    end
    else false
  in
  let out = Result.get_ok (Uni.originate a ~now:0.0 ~call_ref:4 []) in
  let _, eb = splice ~drop ~now:0.0 a b out in
  check "not yet offered" true
    (not (List.exists (function Uni.Call_offered _ -> true | _ -> false) eb));
  (* SSCOP poll timer fires well before T303. *)
  let d = Option.get (Uni.next_deadline a) in
  check "sscop deadline before T303" true (d < 4.0);
  let o = Uni.tick a ~now:d in
  let _, eb2 = splice ~now:d a b o in
  check "offered after recovery" true
    (List.exists (function Uni.Call_offered (4, _) -> true | _ -> false) eb2)

let test_link_down_reported () =
  let a, b = linked () in
  (* A stops hearing from B entirely while data is outstanding: after the
     SSCOP retransmission budget, the link resets and is reported down. *)
  ignore (Result.get_ok (Uni.originate a ~now:0.0 ~call_ref:2 []));
  ignore b;
  let rec starve _now n =
    if n > 40 then Alcotest.fail "link never reset"
    else
      match Uni.next_deadline a with
      | None -> Alcotest.fail "no deadline"
      | Some d ->
        let o = Uni.tick a ~now:d in
        if List.exists (function Uni.Link_down _ -> true | _ -> false) o.Uni.events
        then ()
        else starve d (n + 1)
  in
  starve 0.0 0;
  check "link down" false (Uni.link_ready a)

(* Words allocated so far, minor plus direct-major: an array of more than
   256 words goes straight into the major heap, and [Gc.minor_words]
   alone would not see it.  The minor count is [Gc.minor_words], since
   [Gc.counters]' undercounts what the current minor heap holds. *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let words_allocated () = Gc.minor_words () +. direct_major_words ()

(* 300 calls held at once on one endpoint pair, each in a row of its own;
   a second round of 300 reuses the released rows, so it grows nothing:
   the rows for 600 calls would be a 5,120-word int array, allocated
   straight into the major heap. *)
let test_many_calls_reuse_rows () =
  let a, b = linked () in
  let round first =
    let refs = List.init 300 (fun i -> first + i) in
    List.iter
      (fun call_ref ->
        let out = Result.get_ok (Uni.originate a ~now:0.1 ~call_ref []) in
        ignore (splice ~now:0.1 a b out))
      refs;
    checki "a holds 300 calls before any answer" 300 (Uni.active_calls a);
    List.iter
      (fun call_ref ->
        let out = Result.get_ok (Uni.accept b ~now:0.2 ~call_ref) in
        ignore (splice ~now:0.2 b a out))
      refs;
    List.iter
      (fun call_ref ->
        if
          Uni.call_state a ~call_ref <> Some Fsm.Active
          || Uni.call_state b ~call_ref <> Some Fsm.Active
        then Alcotest.failf "call %d is not active at both ends" call_ref)
      refs;
    List.iter
      (fun call_ref ->
        let out = Result.get_ok (Uni.hangup a ~now:0.3 ~call_ref) in
        ignore (splice ~now:0.3 a b out))
      refs;
    checki "a released every call" 0 (Uni.active_calls a);
    checki "b released every call" 0 (Uni.active_calls b)
  in
  round 1;
  let m0 = direct_major_words () in
  round 1001;
  let dm = direct_major_words () -. m0 in
  if dm > 0.0 then
    Alcotest.failf
      "the second round of 300 calls allocated %.0f direct-major words: its \
       rows were not reused"
      dm

(* [next_deadline] is the earliest armed T303 or T308 over every call,
   wherever its row lies, and moves when that call is answered.  A's
   frames reach B in order, each when the test delivers it; SSCOP's own
   timers are pushed past 1,000 s so that only the calls' show. *)
let test_next_deadline_earliest_call () =
  let slow =
    {
      Sscop_conn.default_config with
      Sscop_conn.poll_interval = 1000.0;
      response_timeout = 1000.0;
    }
  in
  let a = Uni.create ~sscop:slow () and b = Uni.create ~sscop:slow () in
  ignore (splice ~now:0.0 a b (Uni.link_up a ~now:0.0));
  let deadline what expected =
    Alcotest.(check (option (float 1e-9)))
      what (Some expected) (Uni.next_deadline a)
  in
  let setup call_ref now = Result.get_ok (Uni.originate a ~now ~call_ref []) in
  let s1 = setup 1 0.1 and s2 = setup 2 0.2 and s3 = setup 3 0.3 in
  deadline "call 1's T303" 4.1;
  (* B answers each SETUP it receives with CALL_PROCEEDING. *)
  ignore (splice ~now:0.4 a b s1);
  deadline "call 2's T303, once call 1 is answered" 4.2;
  ignore (splice ~now:0.5 a b s2);
  deadline "call 3's T303, once call 2 is answered" 4.3;
  (* Call 1's RELEASE stays on A's side, so its T308 stays armed. *)
  let release = Result.get_ok (Uni.hangup a ~now:0.6 ~call_ref:1) in
  deadline "call 3's T303 before call 1's T308" 4.3;
  ignore (splice ~now:0.7 a b s3);
  deadline "call 1's T308, once call 3 is answered" 30.6;
  ignore (splice ~now:0.8 a b release);
  check "no call timer once call 1 is released" true
    (match Uni.next_deadline a with None -> true | Some d -> d >= 1000.0)

(* Creating an endpoint allocates its SSCOP connection, an empty call
   index and its record; rows come with the first call.  A 1,024-slot
   front-cache model's tag array alone would be 1,025 words. *)
let test_create_cost () =
  let w0 = words_allocated () in
  let u = Uni.create () in
  let dw = words_allocated () -. w0 in
  ignore (Sys.opaque_identity u);
  if dw >= 400.0 then
    Alcotest.failf
      "creating a UNI endpoint allocated %.0f words (budget < 400)" dw

(* The first access claims an endpoint for its domain; a read or a call
   placed from any other domain raises, and the owner carries on. *)
let test_ownership_tripwire () =
  let a, _ = linked () in
  ignore (Result.get_ok (Uni.originate a ~now:0.1 ~call_ref:1 []));
  let raises what f =
    let raised () =
      match f () with _ -> false | exception Invalid_argument _ -> true
    in
    if not (Domain.join (Domain.spawn raised)) then
      Alcotest.failf "%s from another domain did not raise" what
  in
  raises "call_state" (fun () -> ignore (Uni.call_state a ~call_ref:1));
  raises "originate" (fun () ->
      ignore (Uni.originate a ~now:0.2 ~call_ref:2 []));
  check "owner still works after the tripwire fired" true
    (Uni.call_state a ~call_ref:1 = Some Fsm.Call_initiated)

let suite =
  [
    Alcotest.test_case "link establishment" `Quick test_link_establishment;
    Alcotest.test_case "call setup/answer" `Quick test_call_setup_and_answer;
    Alcotest.test_case "call release" `Quick test_call_release;
    Alcotest.test_case "originate requires link" `Quick test_originate_requires_link;
    Alcotest.test_case "busy call ref" `Quick test_busy_call_ref;
    Alcotest.test_case "t303 retransmit then fail" `Quick test_t303_retransmits_then_fails;
    Alcotest.test_case "expired calls fire in call-reference order" `Quick
      test_expiry_order;
    Alcotest.test_case "t303 cancelled by answer" `Quick test_t303_cancelled_by_response;
    Alcotest.test_case "sscop recovers lost setup" `Quick test_sscop_recovers_lost_setup;
    Alcotest.test_case "link down on starvation" `Quick test_link_down_reported;
    Alcotest.test_case "300 calls held, then 300 more in the freed rows" `Quick
      test_many_calls_reuse_rows;
    Alcotest.test_case "next deadline is the earliest call timer" `Quick
      test_next_deadline_earliest_call;
    Alcotest.test_case "a UNI endpoint costs under 400 words to create" `Quick
      test_create_cost;
    Alcotest.test_case "an endpoint raises when touched from another domain"
      `Quick test_ownership_tripwire;
  ]
