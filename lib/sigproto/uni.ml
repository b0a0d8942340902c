module Flat = Ldlp_flowtable.Flat

(* Each call is one row of [width] int columns in [t.rows], found through
   [t.index] by call reference.  The row's supervision deadline and, for
   a call this end originated, the elements of its SETUP sit at the row's
   number in [t.deadlines] and [t.ies].  A free row's [c_ref] holds
   [-2 - next], the next free row (-1 for none), so every negative [c_ref]
   is a free row.  A free row's deadline, like an unarmed call's, is
   [infinity]. *)
let c_ref = 0

let c_state = 1 (* Fsm.code *)

let c_timer = 2 (* no_timer, timer_t303 or timer_t308 *)

let c_tries = 3 (* retransmissions since the timer was armed *)

let c_orig = 4 (* 1 when this end originated the call *)

let width = 5

let no_timer = 0

let timer_t303 = 1

let timer_t308 = 2

let null = Fsm.code Fsm.Null

type t = {
  sscop : Sscop_conn.t;
  out : Outbox.t;
  index : Flat.t;  (* call reference to row *)
  mutable rows : int array;
  mutable deadlines : float array;
  mutable ies : bytes array;  (* an originated call's SETUP elements *)
  mutable free : int;  (* first free row, -1 for none *)
  mutable owner : int;  (* -1 until the first call access claims it *)
}

(* Q.93B's T303 (SETUP unanswered) and T308 (RELEASE unanswered), in
   seconds. *)
let t303 = 4.0

let t308 = 30.0

let create ?sscop () =
  {
    sscop = Sscop_conn.create ?config:sscop ();
    out = Outbox.create ();
    index = Flat.create ();
    rows = [||];
    deadlines = [||];
    ies = [||];
    free = -1;
    owner = -1;
  }

let outbox t = t.out

(* Domain-local, like a [Ldlp_core.Msg] pool: the first access to the
   calls claims the endpoint for the calling domain, and an access from
   any other domain raises.  The sharded mesh storm builds each shard's
   endpoints on the domain that drives them. *)
let guard t =
  let me = (Domain.self () :> int) in
  if t.owner <> me then
    if t.owner < 0 then t.owner <- me
    else
      invalid_arg
        (Printf.sprintf
           "Uni: endpoint owned by domain %d, accessed from domain %d" t.owner
           me)

(* The row holding [call_ref], or -1. *)
let find t call_ref =
  guard t;
  let slot = Flat.find t.index call_ref in
  if slot < 0 then -1 else Flat.value t.index slot

(* When no row is free, the rows double (from 4) and the new ones make up
   the free list. *)
let grow t =
  let n = Array.length t.deadlines in
  let grown = Int.max 4 (2 * n) in
  let rows = Array.make (grown * width) 0 in
  Array.blit t.rows 0 rows 0 (n * width);
  for r = n to grown - 1 do
    rows.((r * width) + c_ref) <- -2 - (if r = grown - 1 then -1 else r + 1)
  done;
  let deadlines = Array.make grown infinity in
  Array.blit t.deadlines 0 deadlines 0 n;
  let ies = Array.make grown Bytes.empty in
  Array.blit t.ies 0 ies 0 n;
  t.rows <- rows;
  t.deadlines <- deadlines;
  t.ies <- ies;
  t.free <- n

let add_call t call_ref ~from_originator ies =
  if t.free < 0 then grow t;
  let r = t.free in
  (* Bound first: a negative reference raises before the row is taken. *)
  Flat.add t.index call_ref r;
  let b = r * width and c = t.rows in
  t.free <- -2 - c.(b + c_ref);
  c.(b + c_ref) <- call_ref;
  c.(b + c_state) <- null;
  c.(b + c_timer) <- no_timer;
  c.(b + c_tries) <- 0;
  c.(b + c_orig) <- (if from_originator then 1 else 0);
  t.ies.(r) <- ies;
  r

let remove_call t r =
  let b = r * width and c = t.rows in
  Flat.remove t.index c.(b + c_ref);
  c.(b + c_ref) <- -2 - t.free;
  c.(b + c_timer) <- no_timer;
  t.deadlines.(r) <- infinity;
  t.ies.(r) <- Bytes.empty;
  t.free <- r

let arm t r timer ~tries deadline =
  let b = r * width in
  t.rows.(b + c_timer) <- timer;
  t.rows.(b + c_tries) <- tries;
  t.deadlines.(r) <- deadline

let disarm t r =
  t.rows.((r * width) + c_timer) <- no_timer;
  t.deadlines.(r) <- infinity

let link_ready t = Sscop_conn.state t.sscop = Sscop_conn.Ready

let active_calls t = Flat.length t.index

let call_state t ~call_ref =
  let r = find t call_ref in
  if r < 0 then None else Some (Fsm.of_code t.rows.((r * width) + c_state))

let event t kind call_ref reason = Outbox.add_event t.out kind ~call_ref reason

(* Send one Q.93B message through the assured connection, written
   straight into the frame SSCOP keeps for retransmission; nothing while
   the link is down. *)
let ship t ~now ~call_ref ~from_originator typ ies =
  if link_ready t then begin
    let ie_len = Bytes.length ies in
    let f =
      Sscop_conn.reserve t.sscop ~now t.out (Sigmsg.header_bytes + ie_len)
    in
    Sigmsg.write_header f Sscop.header_bytes ~call_ref ~from_originator
      ~code:(Sigmsg.type_code typ) ~ie_len;
    Bytes.blit ies 0 f (Sscop.header_bytes + Sigmsg.header_bytes) ie_len
  end

let link_up t ~now = Sscop_conn.begin_connection t.sscop ~now t.out

(* Carry out a call's FSM actions in order.  The message that drove them
   (if any) lies at [at] in [buf]: an offered call's event points at it. *)
let rec apply t ~now r ~call_ref ~from_originator buf at = function
  | [] -> ()
  | action :: rest ->
    (match action with
    | Fsm.Send typ ->
      let ies = if typ = Sigmsg.Setup then t.ies.(r) else Bytes.empty in
      ship t ~now ~call_ref ~from_originator typ ies
    | Fsm.Notify_setup -> Outbox.add_offer t.out ~call_ref buf at
    | Fsm.Notify_connected ->
      disarm t r;
      event t Outbox.Call_connected call_ref ""
    | Fsm.Notify_released ->
      disarm t r;
      event t Outbox.Call_released call_ref "");
    apply t ~now r ~call_ref ~from_originator buf at rest

let step_call t ~now r ev buf at =
  let b = r * width in
  let call_ref = t.rows.(b + c_ref) in
  let from_originator = t.rows.(b + c_orig) = 1 in
  let state = t.rows.(b + c_state) in
  match Fsm.step (Fsm.of_code state) ev with
  | Fsm.Protocol_error e ->
    (* Answer with STATUS per Q.93B and surface the error; a call that
       never left Null holds no state worth keeping. *)
    if state = null then remove_call t r;
    ship t ~now ~call_ref ~from_originator:(not from_originator)
      Sigmsg.Status Bytes.empty;
    event t Outbox.Call_failed call_ref e
  | Fsm.Ok_next (state', actions) ->
    t.rows.(b + c_state) <- Fsm.code state';
    apply t ~now r ~call_ref ~from_originator buf at actions;
    if Fsm.is_terminal state' then remove_call t r

let originate t ~now ~call_ref ies =
  if not (link_ready t) then Error `Link_down
  else if find t call_ref >= 0 then Error `Busy_ref
  else if call_ref > 0x7FFFFF then
    invalid_arg "Uni.originate: call reference out of 23-bit range"
  else begin
    let r = add_call t call_ref ~from_originator:true ies in
    step_call t ~now r Fsm.Api_setup Bytes.empty 0;
    arm t r timer_t303 ~tries:0 (now +. t303);
    Ok ()
  end

let abort t ~call_ref =
  let r = find t call_ref in
  if r >= 0 then remove_call t r;
  r >= 0

let accept t ~now ~call_ref =
  let r = find t call_ref in
  if r < 0 then Error `No_call
  else begin
    step_call t ~now r Fsm.Api_accept Bytes.empty 0;
    Ok ()
  end

let hangup t ~now ~call_ref =
  let r = find t call_ref in
  if r < 0 then Error `No_call
  else begin
    step_call t ~now r Fsm.Api_release Bytes.empty 0;
    (* A removed row's [c_ref] is negative. *)
    if t.rows.((r * width) + c_ref) = call_ref then
      arm t r timer_t308 ~tries:0 (now +. t308);
    Ok ()
  end

(* The Q.93B message in the [len] bytes at [off], checked and read where
   it lies. *)
let on_signalling t ~now buf off len =
  if Sigmsg.check_at buf off len >= 0 then begin
    let call_ref = Sigmsg.call_ref_at buf off and typ = Sigmsg.typ_at buf off in
    let r =
      let r = find t call_ref in
      if r >= 0 then r else add_call t call_ref ~from_originator:false Bytes.empty
    in
    let b = r * width in
    (* A call this end originated resends the last SETUP it holds on
       T303, so a SETUP for it replaces its elements. *)
    if typ = Sigmsg.Setup && t.rows.(b + c_orig) = 1 then
      t.ies.(r) <-
        Bytes.sub buf (off + Sigmsg.header_bytes) (Sigmsg.ie_length_at buf off);
    (* Any response to SETUP / RELEASE stops the supervision timer. *)
    let timer = t.rows.(b + c_timer) in
    (match typ with
    | (Sigmsg.Call_proceeding | Sigmsg.Connect) when timer = timer_t303 ->
      disarm t r
    | Sigmsg.Release_complete when timer = timer_t308 -> disarm t r
    | _ -> ());
    step_call t ~now r (Fsm.recv typ) buf off
  end

let on_wire t ~now buf off len =
  if Sscop_conn.input t.sscop ~now t.out buf off len then
    on_signalling t ~now buf (off + Sscop.header_bytes) (len - Sscop.header_bytes)

(* A loop over the rows' deadlines, which are [infinity] on free rows and
   unarmed calls: the mesh asks after every operation, and inlined, the
   result stays an unboxed float. *)
let[@inline] next_deadline t =
  let d = t.deadlines in
  let soonest = ref (Sscop_conn.next_deadline t.sscop) in
  for r = 0 to Array.length d - 1 do
    let x = Array.unsafe_get d r in
    if x < !soonest then soonest := x
  done;
  !soonest

(* The row of the expired call with the smallest reference above [above],
   or -1: expiries fire in ascending call-reference order, which the
   rows' numbering cannot change. *)
let next_expired t ~now ~above =
  let c = t.rows in
  let best = ref (-1) in
  for r = 0 to Array.length t.deadlines - 1 do
    let b = r * width in
    let cr = c.(b + c_ref) in
    if
      cr > above
      && c.(b + c_timer) <> no_timer
      && (not (now < t.deadlines.(r)))
      && (!best < 0 || cr < c.((!best * width) + c_ref))
    then best := r
  done;
  !best

(* A Q.93B supervision timer fires: the first expiry retransmits SETUP or
   RELEASE and re-arms once, the second gives the call up. *)
let expire t ~now r =
  let b = r * width in
  let call_ref = t.rows.(b + c_ref) in
  let first = t.rows.(b + c_tries) = 0 in
  if t.rows.(b + c_timer) = timer_t303 then
    if first then begin
      arm t r timer_t303 ~tries:1 (now +. t303);
      ship t ~now ~call_ref ~from_originator:true Sigmsg.Setup t.ies.(r)
    end
    else begin
      remove_call t r;
      event t Outbox.Call_failed call_ref "T303 expired"
    end
  else if first then begin
    arm t r timer_t308 ~tries:1 (now +. t308);
    ship t ~now ~call_ref ~from_originator:(t.rows.(b + c_orig) = 1)
      Sigmsg.Release Bytes.empty
  end
  else begin
    remove_call t r;
    event t Outbox.Call_failed call_ref "T308 expired"
  end

(* An expiry re-arms or frees only its own row. *)
let rec fire t ~now above =
  let r = next_expired t ~now ~above in
  if r >= 0 then begin
    guard t;
    let call_ref = t.rows.((r * width) + c_ref) in
    expire t ~now r;
    fire t ~now call_ref
  end

let tick t ~now =
  (* SSCOP timers first, then the Q.93B supervision timers. *)
  Sscop_conn.tick t.sscop ~now t.out;
  fire t ~now (-1)
