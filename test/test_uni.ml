(* Tests for the UNI signalling endpoint: Q.93B call control over
   assured-mode SSCOP, including the T303/T308 supervision timers.  Two
   endpoints are wired back-to-back through a (possibly lossy) in-memory
   link. *)

open Ldlp_sigproto

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* An endpoint's outbox entries, read back as lists. *)
type event =
  | Link_up
  | Link_down of string
  | Call_offered of int * Ie.t list
  | Call_connected of int
  | Call_released of int
  | Call_failed of int * string

type outcome = { to_wire : bytes list; events : event list }

(* The entries above [m] in [u]'s outbox, which are then dropped. *)
let take u m =
  let ob = Uni.outbox u in
  let frames = ref [] and events = ref [] in
  for i = Outbox.top ob - 1 downto m do
    let cr = Outbox.call_ref ob i in
    let ev =
      match Outbox.kind ob i with
      | Outbox.Frame ->
        frames := Outbox.data ob i :: !frames;
        None
      | Outbox.Link_up -> Some Link_up
      | Outbox.Link_down -> Some (Link_down (Outbox.reason ob i))
      | Outbox.Call_offered ->
        let buf = Outbox.data ob i and at = Outbox.pos ob i in
        let ies =
          Ie.decode_list buf (at + Sigmsg.header_bytes) (Sigmsg.ie_length_at buf at)
        in
        Some (Call_offered (cr, Result.get_ok ies))
      | Outbox.Call_connected -> Some (Call_connected cr)
      | Outbox.Call_released -> Some (Call_released cr)
      | Outbox.Call_failed -> Some (Call_failed (cr, Outbox.reason ob i))
    in
    Option.iter (fun e -> events := e :: !events) ev
  done;
  Outbox.drop ob m;
  { to_wire = !frames; events = !events }

(* Run one operation on [u] and take what it left. *)
let run u f =
  let m = Outbox.top (Uni.outbox u) in
  let r = f () in
  (r, take u m)

let out u f = snd (run u f)

let ok u f =
  match run u f with
  | Ok (), o -> o
  | Error _, _ -> Alcotest.fail "operation refused"

let link_up u ~now = out u (fun () -> Uni.link_up u ~now)

let on_wire u ~now f = out u (fun () -> Uni.on_wire u ~now f 0 (Bytes.length f))

let tick u ~now = out u (fun () -> Uni.tick u ~now)

let originate u ~now ~call_ref ies =
  run u (fun () -> Uni.originate u ~now ~call_ref (Ie.encode ies))

let deadline u =
  let d = Uni.next_deadline u in
  if d < infinity then Some d else None

(* Exchange frames between two endpoints until quiescent; returns all
   events seen on each side.  [drop] decides per-frame loss. *)
let splice ?(drop = fun _ -> false) ~now a b out_a =
  let events_a = ref [] and events_b = ref [] in
  let rec go dir (o : outcome) =
    let src_events, dst =
      match dir with `A2b -> (events_a, b) | `B2a -> (events_b, a)
    in
    src_events := !src_events @ o.events;
    List.iter
      (fun frame ->
        if not (drop frame) then begin
          let o' = on_wire dst ~now frame in
          go (match dir with `A2b -> `B2a | `B2a -> `A2b) o'
        end)
      o.to_wire
  in
  go `A2b out_a;
  (!events_a, !events_b)

let linked () =
  let a = Uni.create () and b = Uni.create () in
  let ea, eb = splice ~now:0.0 a b (link_up a ~now:0.0) in
  check "a link up" true (List.mem Link_up ea);
  check "b link up" true (List.mem Link_up eb);
  check "both ready" true (Uni.link_ready a && Uni.link_ready b);
  (a, b)

let test_link_establishment () = ignore (linked ())

let test_call_setup_and_answer () =
  let a, b = linked () in
  let out = ok a (fun () -> Uni.originate a ~now:0.1 ~call_ref:7 (Ie.encode [ Ie.called_party "b" ])) in
  let _, eb = splice ~now:0.1 a b out in
  (match List.find_opt (function Call_offered _ -> true | _ -> false) eb with
  | Some (Call_offered (7, ies)) ->
    check "IEs carried" true (List.exists (fun ie -> ie.Ie.id = Ie.id_called_party) ies)
  | _ -> Alcotest.fail "no offer");
  (* B answers. *)
  let out_b = ok b (fun () -> Uni.accept b ~now:0.2 ~call_ref:7) in
  let eb2, ea2 = splice ~now:0.2 b a out_b in
  check "a connected" true (List.mem (Call_connected 7) ea2);
  check "b connected" true (List.mem (Call_connected 7) eb2);
  check "a call active" true (Uni.call_state a ~call_ref:7 = Some Fsm.Active);
  check "b call active" true (Uni.call_state b ~call_ref:7 = Some Fsm.Active)

let connected_pair () =
  let a, b = linked () in
  let out = ok a (fun () -> Uni.originate a ~now:0.1 ~call_ref:7 (Ie.encode [ Ie.called_party "b" ])) in
  ignore (splice ~now:0.1 a b out);
  let out_b = ok b (fun () -> Uni.accept b ~now:0.2 ~call_ref:7) in
  ignore (splice ~now:0.2 b a out_b);
  (a, b)

let test_call_release () =
  let a, b = connected_pair () in
  let out = ok a (fun () -> Uni.hangup a ~now:1.0 ~call_ref:7) in
  let ea, eb = splice ~now:1.0 a b out in
  check "a released" true (List.mem (Call_released 7) ea);
  check "b released" true (List.mem (Call_released 7) eb);
  checki "a table empty" 0 (Uni.active_calls a);
  checki "b table empty" 0 (Uni.active_calls b)

let test_originate_requires_link () =
  let a = Uni.create () in
  match originate a ~now:0.0 ~call_ref:1 [] with
  | Error `Link_down, _ -> ()
  | _ -> Alcotest.fail "expected Link_down"

let test_busy_call_ref () =
  let a, b = linked () in
  ignore b;
  ignore (Result.get_ok (fst (originate a ~now:0.0 ~call_ref:3 [])));
  match originate a ~now:0.0 ~call_ref:3 [] with
  | Error `Busy_ref, _ -> ()
  | _ -> Alcotest.fail "expected Busy_ref"

let test_t303_retransmits_then_fails () =
  let a, b = linked () in
  ignore b;
  (* SETUP vanishes: drop everything A sends from now on. *)
  ignore (originate a ~now:0.0 ~call_ref:9 []);
  (* First T303 expiry: SETUP retransmitted (also dropped). *)
  let rec drive _now seen_retransmit =
    match deadline a with
    | None -> Alcotest.fail "deadline disappeared before failure"
    | Some d ->
      let o = tick a ~now:d in
      if List.exists (function Call_failed (9, _) -> true | _ -> false) o.events
      then seen_retransmit
      else drive d (seen_retransmit || o.to_wire <> [])
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
    (fun call_ref -> ignore (Result.get_ok (fst (originate a ~now:0.0 ~call_ref []))))
    [ 2; 3 ];
  let rec drive n =
    if n > 40 then Alcotest.fail "calls never failed"
    else
      match deadline a with
      | None -> Alcotest.fail "deadline disappeared before failure"
      | Some d -> (
        match
          List.filter_map
            (function Call_failed (r, _) -> Some r | _ -> None)
            (tick a ~now:d).events
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
      match deadline a with
      | None -> ()
      | Some d when d > 100.0 -> ()
      | Some d ->
        let o = tick a ~now:d in
        check "no call failure after connect" true
          (not (List.exists (function Call_failed _ -> true | _ -> false) o.events));
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
  let out = ok a (fun () -> Uni.originate a ~now:0.0 ~call_ref:4 Bytes.empty) in
  let _, eb = splice ~drop ~now:0.0 a b out in
  check "not yet offered" true
    (not (List.exists (function Call_offered _ -> true | _ -> false) eb));
  (* SSCOP poll timer fires well before T303. *)
  let d = Option.get (deadline a) in
  check "sscop deadline before T303" true (d < 4.0);
  let o = tick a ~now:d in
  let _, eb2 = splice ~now:d a b o in
  check "offered after recovery" true
    (List.exists (function Call_offered (4, _) -> true | _ -> false) eb2)

let test_link_down_reported () =
  let a, b = linked () in
  (* A stops hearing from B entirely while data is outstanding: after the
     SSCOP retransmission budget, the link resets and is reported down. *)
  ignore (originate a ~now:0.0 ~call_ref:2 []);
  ignore b;
  let rec starve _now n =
    if n > 40 then Alcotest.fail "link never reset"
    else
      match deadline a with
      | None -> Alcotest.fail "no deadline"
      | Some d ->
        let o = tick a ~now:d in
        if List.exists (function Link_down _ -> true | _ -> false) o.events then ()
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
        let out = ok a (fun () -> Uni.originate a ~now:0.1 ~call_ref Bytes.empty) in
        ignore (splice ~now:0.1 a b out))
      refs;
    checki "a holds 300 calls before any answer" 300 (Uni.active_calls a);
    List.iter
      (fun call_ref ->
        let out = ok b (fun () -> Uni.accept b ~now:0.2 ~call_ref) in
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
        let out = ok a (fun () -> Uni.hangup a ~now:0.3 ~call_ref) in
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
  ignore (splice ~now:0.0 a b (link_up a ~now:0.0));
  let deadline what expected =
    Alcotest.(check (option (float 1e-9))) what (Some expected) (deadline a)
  in
  let setup call_ref now = ok a (fun () -> Uni.originate a ~now ~call_ref Bytes.empty) in
  let s1 = setup 1 0.1 and s2 = setup 2 0.2 and s3 = setup 3 0.3 in
  deadline "call 1's T303" 4.1;
  (* B answers each SETUP it receives with CALL_PROCEEDING. *)
  ignore (splice ~now:0.4 a b s1);
  deadline "call 2's T303, once call 1 is answered" 4.2;
  ignore (splice ~now:0.5 a b s2);
  deadline "call 3's T303, once call 2 is answered" 4.3;
  (* Call 1's RELEASE stays on A's side, so its T308 stays armed. *)
  let release = ok a (fun () -> Uni.hangup a ~now:0.6 ~call_ref:1) in
  deadline "call 3's T303 before call 1's T308" 4.3;
  ignore (splice ~now:0.7 a b s3);
  deadline "call 1's T308, once call 3 is answered" 30.6;
  ignore (splice ~now:0.8 a b release);
  check "no call timer once call 1 is released" true (Uni.next_deadline a >= 1000.0)

(* Creating an endpoint allocates its SSCOP connection, an empty call
   index, an empty outbox and its record; rows come with the first call.
   A 1,024-slot front-cache model's tag array alone would be 1,025
   words. *)
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
  ignore (Result.get_ok (fst (originate a ~now:0.1 ~call_ref:1 [])));
  let raises what f =
    let raised () =
      match f () with _ -> false | exception Invalid_argument _ -> true
    in
    if not (Domain.join (Domain.spawn raised)) then
      Alcotest.failf "%s from another domain did not raise" what
  in
  raises "call_state" (fun () -> ignore (Uni.call_state a ~call_ref:1));
  raises "originate" (fun () ->
      ignore (Uni.originate a ~now:0.2 ~call_ref:2 Bytes.empty));
  check "owner still works after the tripwire fired" true
    (Uni.call_state a ~call_ref:1 = Some Fsm.Call_initiated)

(* ---------- The cursor endpoint against the record reference ---------- *)

(* A random call lifecycle between two endpoints: operations on either
   side, clock steps, and frames in transit that are delivered (possibly
   mutated), lost or duplicated.  Each operation runs on a [Uni] pair and
   on a [Uni_ref] pair in lockstep, and both must give out the same
   frames and events and hold the same link and call states. *)
type side = A | B

type mutation =
  | Intact
  | Truncate of int  (** Keep this many bytes. *)
  | Flip of int * int  (** Byte (modulo the length) and bit. *)
  | Tag of char  (** A different SSCOP tag. *)
  | Msg_length of int  (** A lying Q.93B message (element) length. *)
  | Ie_length of int  (** A lying length in the first element. *)
  | Splice of int  (** This many bytes, then the next frame's tail. *)

type op =
  | Originate of side * int
  | Accept of side * int
  | Hangup of side * int
  | Abort of side * int
  | Deliver of side * mutation  (** The oldest frame the side sent. *)
  | Lose of side
  | Duplicate of side
  | Tick of side * bool  (** To the side's deadline, or 10 ms on. *)
  | Relink of side

let side_name = function A -> "a" | B -> "b"

let show_mutation = function
  | Intact -> "intact"
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Flip (i, b) -> Printf.sprintf "flip %d.%d" i b
  | Tag c -> Printf.sprintf "tag %C" c
  | Msg_length n -> Printf.sprintf "msg-length %d" n
  | Ie_length n -> Printf.sprintf "ie-length %d" n
  | Splice n -> Printf.sprintf "splice %d" n

let show_op = function
  | Originate (s, cr) -> Printf.sprintf "originate %s %d" (side_name s) cr
  | Accept (s, cr) -> Printf.sprintf "accept %s %d" (side_name s) cr
  | Hangup (s, cr) -> Printf.sprintf "hangup %s %d" (side_name s) cr
  | Abort (s, cr) -> Printf.sprintf "abort %s %d" (side_name s) cr
  | Deliver (s, m) -> Printf.sprintf "deliver %s %s" (side_name s) (show_mutation m)
  | Lose s -> "lose " ^ side_name s
  | Duplicate s -> "duplicate " ^ side_name s
  | Tick (s, jump) -> Printf.sprintf "tick %s%s" (side_name s) (if jump then " to deadline" else "")
  | Relink s -> "relink " ^ side_name s

let gen_op =
  let open QCheck.Gen in
  let side = oneofl [ A; B ] and cr = int_range 1 4 in
  let mutation =
    frequency
      [
        (12, return Intact);
        (1, map (fun n -> Truncate n) (int_bound 24));
        (2, map2 (fun i b -> Flip (i, b)) (int_bound 40) (int_bound 7));
        (1, map (fun c -> Tag c) (oneofl [ 'B'; 'G'; 'E'; 'F'; 'D'; 'A'; 'P'; 'S'; 'Z' ]));
        (1, map (fun n -> Msg_length n) (oneof [ int_bound 40; int_bound 0xFFFF ]));
        (1, map (fun n -> Ie_length n) (oneof [ int_bound 40; int_bound 0xFFFF ]));
        (1, map (fun n -> Splice n) (int_bound 24));
      ]
  in
  frequency
    [
      (3, map2 (fun s c -> Originate (s, c)) side cr);
      (2, map2 (fun s c -> Accept (s, c)) side cr);
      (2, map2 (fun s c -> Hangup (s, c)) side cr);
      (1, map2 (fun s c -> Abort (s, c)) side cr);
      (14, map2 (fun s m -> Deliver (s, m)) side mutation);
      (1, map (fun s -> Lose s) side);
      (1, map (fun s -> Duplicate s) side);
      (2, map2 (fun s j -> Tick (s, j)) side bool);
      (1, map (fun s -> Relink s) side);
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 10 80) gen_op)

let mutate m f ~next =
  let n = Bytes.length f in
  let set_u16 at v =
    if at + 2 <= n then Bytes.set_uint16_be f at (v land 0xFFFF)
  in
  match m with
  | Intact -> f
  | Truncate k -> Bytes.sub f 0 (Int.min k n)
  | Flip (i, b) ->
    if n > 0 then begin
      let i = i mod n in
      Bytes.set_uint8 f i (Bytes.get_uint8 f i lxor (1 lsl b))
    end;
    f
  | Tag c ->
    if n > 0 then Bytes.set f 0 c;
    f
  | Msg_length v ->
    set_u16 (Sscop.header_bytes + 6) v;
    f
  | Ie_length v ->
    set_u16 (Sscop.header_bytes + Sigmsg.header_bytes + 1) v;
    f
  | Splice k -> (
    (* Cut both frames at [k] and join this one's head to the next's
       tail. *)
    match next with
    | None -> f
    | Some g ->
      let j = Int.min k (Bytes.length g) in
      Bytes.cat (Bytes.sub f 0 (Int.min k n)) (Bytes.sub g j (Bytes.length g - j)))

let norm_ref = function
  | Uni_ref.Link_up -> Link_up
  | Uni_ref.Link_down r -> Link_down r
  | Uni_ref.Call_offered (cr, ies) -> Call_offered (cr, ies)
  | Uni_ref.Call_connected cr -> Call_connected cr
  | Uni_ref.Call_released cr -> Call_released cr
  | Uni_ref.Call_failed (cr, e) -> Call_failed (cr, e)

let show_event = function
  | Link_up -> "link-up"
  | Link_down r -> "link-down " ^ r
  | Call_offered (cr, ies) -> Printf.sprintf "offered %d (%d IEs)" cr (List.length ies)
  | Call_connected cr -> Printf.sprintf "connected %d" cr
  | Call_released cr -> Printf.sprintf "released %d" cr
  | Call_failed (cr, e) -> Printf.sprintf "failed %d: %s" cr e

let states_of_ref r = List.init 6 (fun cr -> Uni_ref.call_state r ~call_ref:cr)

let states_of u = List.init 6 (fun cr -> Uni.call_state u ~call_ref:cr)

let event_kind = function
  | Link_up -> "link-up"
  | Link_down _ -> "link-down"
  | Call_offered _ -> "offered"
  | Call_connected _ -> "connected"
  | Call_released _ -> "released"
  | Call_failed _ -> "failed"

(* Drive one operation list; [Error] names the first disagreement.
   [seen] counts the events both gave out, by kind. *)
let differential ?(seen = Hashtbl.create 8) ops =
  let ca = Uni.create () and cb = Uni.create () in
  let ra = Uni_ref.create () and rb = Uni_ref.create () in
  let cur = function A -> ca | B -> cb and rf = function A -> ra | B -> rb in
  let other = function A -> B | B -> A in
  let from_a = Queue.create () and from_b = Queue.create () in
  let wire = function A -> from_a | B -> from_b in
  let now = ref 0.0 in
  (* Each side calls the other, so a SETUP that collides with a call of
     the same reference carries elements of its own. *)
  let ref_elements = function
    | A -> [ Ie.called_party "b"; Ie.qos 3 ]
    | B -> [ Ie.called_party "a:1" ]
  in
  let ea = Ie.encode (ref_elements A) and eb = Ie.encode (ref_elements B) in
  let elements = function A -> ea | B -> eb in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* Compare one step's results and queue the frames sent. *)
  let agree what side (c : outcome) (r : Uni_ref.outcome) =
    let re = List.map norm_ref r.Uni_ref.events in
    if c.to_wire <> r.Uni_ref.to_wire then
      fail "%s: frames differ (%d vs %d)" what (List.length c.to_wire)
        (List.length r.Uni_ref.to_wire)
    else if c.events <> re then
      fail "%s: events [%s] vs reference [%s]" what
        (String.concat ", " (List.map show_event c.events))
        (String.concat ", " (List.map show_event re))
    else begin
      List.iter (fun f -> Queue.push f (wire side)) c.to_wire;
      List.iter
        (fun e ->
          let k = event_kind e in
          Hashtbl.replace seen k (1 + Option.value ~default:0 (Hashtbl.find_opt seen k)))
        c.events;
      Ok ()
    end
  in
  let step op =
    match op with
    | Originate (s, cr) -> (
      let m = Outbox.top (Uni.outbox (cur s)) in
      let c = Uni.originate (cur s) ~now:!now ~call_ref:cr (elements s) in
      let co = take (cur s) m in
      match (c, Uni_ref.originate (rf s) ~now:!now ~call_ref:cr (ref_elements s)) with
      | Ok (), Ok ro -> agree "originate" s co ro
      | Error e, Error e' when e = e' -> Ok ()
      | _ -> fail "originate: verdicts differ")
    | Accept (s, cr) | Hangup (s, cr) -> (
      let accept = match op with Accept _ -> true | _ -> false in
      let m = Outbox.top (Uni.outbox (cur s)) in
      let c =
        if accept then Uni.accept (cur s) ~now:!now ~call_ref:cr
        else Uni.hangup (cur s) ~now:!now ~call_ref:cr
      in
      let co = take (cur s) m in
      let r =
        if accept then Uni_ref.accept (rf s) ~now:!now ~call_ref:cr
        else Uni_ref.hangup (rf s) ~now:!now ~call_ref:cr
      in
      match (c, r) with
      | Ok (), Ok ro -> agree (show_op op) s co ro
      | Error `No_call, Error `No_call -> Ok ()
      | _ -> fail "%s: verdicts differ" (show_op op))
    | Abort (s, cr) ->
      if Uni.abort (cur s) ~call_ref:cr = Uni_ref.abort (rf s) ~call_ref:cr then Ok ()
      else fail "abort: verdicts differ"
    | Deliver (s, _) | Duplicate s -> (
      let q = wire s in
      if Queue.is_empty q then Ok ()
      else begin
        let f, mu =
          match op with
          | Deliver (_, mu) -> (Queue.pop q, mu)
          | _ -> (Queue.peek q, Intact)
        in
        let next = Queue.peek_opt q in
        let f = mutate mu (Bytes.copy f) ~next in
        let dst = other s in
        let co = on_wire (cur dst) ~now:!now (Bytes.copy f) in
        let ro = Uni_ref.on_wire (rf dst) ~now:!now (Bytes.copy f) in
        agree (show_op op) dst co ro
      end)
    | Lose s ->
      ignore (Queue.take_opt (wire s));
      Ok ()
    | Tick (s, jump) ->
      (if jump then
         let d = Uni.next_deadline (cur s) in
         if d < infinity then now := Float.max !now d
         else now := !now +. 0.01
       else now := !now +. 0.01);
      let co = tick (cur s) ~now:!now in
      agree (show_op op) s co (Uni_ref.tick (rf s) ~now:!now)
    | Relink s ->
      let co = link_up (cur s) ~now:!now in
      agree "relink" s co (Uni_ref.link_up (rf s) ~now:!now)
  in
  let same_state () =
    List.for_all
      (fun s ->
        Uni.link_ready (cur s) = Uni_ref.link_ready (rf s)
        && Uni.active_calls (cur s) = Uni_ref.active_calls (rf s)
        && states_of (cur s) = states_of_ref (rf s)
        &&
        let d = Uni.next_deadline (cur s) in
        (if d < infinity then Some d else None) = Uni_ref.next_deadline (rf s))
      [ A; B ]
  in
  (* Bring the link up intact, then run the operations. *)
  let rec settle n =
    if n = 0 then Ok ()
    else if not (Queue.is_empty from_a) then
      Result.bind (step (Deliver (A, Intact))) (fun () -> settle (n - 1))
    else if not (Queue.is_empty from_b) then
      Result.bind (step (Deliver (B, Intact))) (fun () -> settle (n - 1))
    else Ok ()
  in
  let rec go i = function
    | [] -> Ok ()
    | op :: rest -> (
      match step op with
      | Error e -> Error (Printf.sprintf "op %d (%s): %s" i (show_op op) e)
      | Ok () ->
        if same_state () then go (i + 1) rest
        else Error (Printf.sprintf "op %d (%s): link or call states differ" i (show_op op)))
  in
  try
    match Result.bind (step (Relink A)) (fun () -> settle 8) with
    | Error e -> Error ("link-up: " ^ e)
    | Ok () -> go 0 ops
  with e -> Error ("raised " ^ Printexc.to_string e)

let prop_cursor_matches_reference =
  QCheck.Test.make
    ~name:"uni: cursor endpoint matches the record reference under mutation"
    ~count:1000 arb_ops (fun ops ->
      match differential ops with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* The battery reaches what it is meant to: over fixed draws, calls are
   offered, connect, release and fail, and links go down, so it compares
   whole lifecycles and not only rejected frames. *)
let test_battery_reaches () =
  let rand = Random.State.make [| 1996 |] and seen = Hashtbl.create 8 in
  for _ = 1 to 200 do
    let ops = QCheck.Gen.generate1 ~rand (QCheck.get_gen arb_ops) in
    match differential ~seen ops with
    | Error e -> Alcotest.failf "differential: %s" e
    | Ok () -> ()
  done;
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then Alcotest.failf "no %s event in 200 draws" k)
    [ "link-up"; "link-down"; "offered"; "connected"; "released"; "failed" ]

(* ---------- Allocation ---------- *)

(* A call lifecycle over a direct link, drained the way the mesh drains
   an endpoint: each frame an operation leaves is delivered to the peer
   at once, and the peer's entries are drained in turn.  The answerer
   accepts every offer and the caller hangs up every connected call.
   [frame_words] counts the words of every frame sent. *)
let frame_words = ref 0

let rec drain caller src dst m =
  let ob = Uni.outbox src in
  let top = Outbox.top ob in
  deliver caller src dst ob m top;
  act caller src dst ob m top;
  Outbox.drop ob m

and deliver caller src dst ob i top =
  if i < top then begin
    if Outbox.kind ob i = Outbox.Frame then begin
      let f = Outbox.data ob i in
      frame_words := !frame_words + 1 + ((Bytes.length f + 8) / 8);
      let m = Outbox.top (Uni.outbox dst) in
      Uni.on_wire dst ~now:1.0 f 0 (Bytes.length f);
      drain caller dst src m
    end;
    deliver caller src dst ob (i + 1) top
  end

and act caller src dst ob i top =
  if i < top then begin
    let m = Outbox.top ob and call_ref = Outbox.call_ref ob i in
    (match Outbox.kind ob i with
    | Outbox.Call_offered ->
      ignore (Uni.accept src ~now:1.0 ~call_ref);
      drain caller src dst m
    | Outbox.Call_connected when src == caller ->
      ignore (Uni.hangup src ~now:1.0 ~call_ref);
      drain caller src dst m
    | _ -> ());
    act caller src dst ob (i + 1) top
  end

let lifecycles a b ies first n =
  for i = first to first + n - 1 do
    let m = Outbox.top (Uni.outbox a) in
    ignore (Uni.originate a ~now:1.0 ~call_ref:(1 + (i land 0xFFFF)) ies);
    drain a a b m
  done

(* 10,000 lifecycles, after 100 to grow the tables, allocate the frames
   they send and nothing else: every message is read where it lies, every
   reply written into its frame, and the outbox and call rows are
   reused.  The frames stay fresh: each data frame is the one SSCOP keeps
   for retransmission, shared with whoever transmits it. *)
let test_lifecycles_allocate_only_frames () =
  let a, b = linked () in
  let ies = Ie.encode [ Ie.called_party "b" ] in
  lifecycles a b ies 0 100;
  checki "warm-up calls all cleared" 0 (Uni.active_calls a + Uni.active_calls b);
  frame_words := 0;
  let w0 = words_allocated () in
  lifecycles a b ies 100 10_000;
  let dw = words_allocated () -. w0 in
  checki "every call cleared" 0 (Uni.active_calls a + Uni.active_calls b);
  (* Six messages and six acks per lifecycle. *)
  if !frame_words < 10_000 * 12 * 2 then
    Alcotest.failf "only %d frame words: the lifecycles did not run" !frame_words;
  let extra = dw -. float_of_int !frame_words in
  if extra > 64.0 then
    Alcotest.failf
      "10,000 lifecycles allocated %.0f words beyond their %d frame words \
       (budget 64)"
      extra !frame_words

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
    QCheck_alcotest.to_alcotest prop_cursor_matches_reference;
    Alcotest.test_case "the differential battery runs its fixed draws" `Quick
      test_battery_reaches;
    Alcotest.test_case "10,000 call lifecycles allocate only their frames" `Quick
      test_lifecycles_allocate_only_frames;
  ]
