type event =
  | Link_up
  | Link_down of string
  | Call_offered of int * Ie.t list
  | Call_connected of int
  | Call_released of int
  | Call_failed of int * string

type outcome = { to_wire : bytes list; events : event list }

let empty = { to_wire = []; events = [] }

let ( ++ ) a b = { to_wire = a.to_wire @ b.to_wire; events = a.events @ b.events }

module Flat = Ldlp_flowtable.Flat

(* Each call is one row of [width] int columns in [t.rows], found through
   [t.index] by call reference.  The row's supervision deadline and the
   IEs of its SETUP sit at the row's number in [t.deadlines] and [t.ies].
   A free row's [c_ref] holds [-2 - next], the next free row (-1 for
   none), so every negative [c_ref] is a free row.  A free row's deadline,
   like an unarmed call's, is [infinity]. *)
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
  index : Flat.t;  (* call reference to row *)
  mutable rows : int array;
  mutable deadlines : float array;
  mutable ies : Ie.t list array;  (* the call's SETUP IEs *)
  mutable free : int;  (* first free row, -1 for none *)
  mutable ready : bool;
  mutable owner : int;  (* -1 until the first call access claims it *)
}

(* Q.93B's T303 (SETUP unanswered) and T308 (RELEASE unanswered), in
   seconds. *)
let t303 = 4.0

let t308 = 30.0

let create ?sscop () =
  {
    sscop = Sscop_conn.create ?config:sscop ();
    index = Flat.create ();
    rows = [||];
    deadlines = [||];
    ies = [||];
    free = -1;
    ready = false;
    owner = -1;
  }

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
  let ies = Array.make grown [] in
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
  t.ies.(r) <- [];
  t.free <- r

let arm t r timer ~tries deadline =
  let b = r * width in
  t.rows.(b + c_timer) <- timer;
  t.rows.(b + c_tries) <- tries;
  t.deadlines.(r) <- deadline

let disarm t r =
  t.rows.((r * width) + c_timer) <- no_timer;
  t.deadlines.(r) <- infinity

let link_ready t = t.ready

let active_calls t = Flat.length t.index

let call_state t ~call_ref =
  let r = find t call_ref in
  if r < 0 then None else Some (Fsm.of_code t.rows.((r * width) + c_state))

let of_sscop (o : Sscop_conn.outcome) =
  { to_wire = o.Sscop_conn.to_send; events = [] }

(* Send one Q.93B message through the assured connection. *)
let ship t ~now ~call_ref ~from_originator typ ies =
  let wire = Sigmsg.encode (Sigmsg.v ~from_originator ~call_ref typ ies) in
  match Sscop_conn.send t.sscop ~now wire with
  | Ok o -> of_sscop o
  | Error `Not_ready -> empty

let link_up t ~now = of_sscop (Sscop_conn.begin_connection t.sscop ~now)

let step_call t ~now r ev =
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
      Sigmsg.Status []
    ++ { empty with events = [ Call_failed (call_ref, e) ] }
  | Fsm.Ok_next (state', actions) ->
    t.rows.(b + c_state) <- Fsm.code state';
    let out =
      List.fold_left
        (fun acc action ->
          match action with
          | Fsm.Send typ ->
            let ies = if typ = Sigmsg.Setup then t.ies.(r) else [] in
            acc ++ ship t ~now ~call_ref ~from_originator typ ies
          | Fsm.Notify_setup ->
            acc
            ++ { empty with events = [ Call_offered (call_ref, t.ies.(r)) ] }
          | Fsm.Notify_connected ->
            disarm t r;
            acc ++ { empty with events = [ Call_connected call_ref ] }
          | Fsm.Notify_released ->
            disarm t r;
            acc ++ { empty with events = [ Call_released call_ref ] })
        empty actions
    in
    if Fsm.is_terminal state' then remove_call t r;
    out

let originate t ~now ~call_ref ies =
  if not t.ready then Error `Link_down
  else if find t call_ref >= 0 then Error `Busy_ref
  else begin
    let r = add_call t call_ref ~from_originator:true ies in
    let out = step_call t ~now r Fsm.Api_setup in
    arm t r timer_t303 ~tries:0 (now +. t303);
    Ok out
  end

let abort t ~call_ref =
  let r = find t call_ref in
  if r >= 0 then remove_call t r;
  r >= 0

let accept t ~now ~call_ref =
  let r = find t call_ref in
  if r < 0 then Error `No_call else Ok (step_call t ~now r Fsm.Api_accept)

let hangup t ~now ~call_ref =
  let r = find t call_ref in
  if r < 0 then Error `No_call
  else begin
    let out = step_call t ~now r Fsm.Api_release in
    (* A removed row's [c_ref] is negative. *)
    if t.rows.((r * width) + c_ref) = call_ref then
      arm t r timer_t308 ~tries:0 (now +. t308);
    Ok out
  end

let on_signalling t ~now wire =
  match Sigmsg.decode wire with
  | Error _ -> empty
  | Ok m ->
    let call_ref = m.Sigmsg.call_ref in
    let r =
      let r = find t call_ref in
      if r >= 0 then r
      else add_call t call_ref ~from_originator:false m.Sigmsg.ies
    in
    if m.Sigmsg.typ = Sigmsg.Setup then t.ies.(r) <- m.Sigmsg.ies;
    (* Any response to SETUP / RELEASE stops the supervision timer. *)
    let timer = t.rows.((r * width) + c_timer) in
    (match m.Sigmsg.typ with
    | (Sigmsg.Call_proceeding | Sigmsg.Connect) when timer = timer_t303 ->
      disarm t r
    | Sigmsg.Release_complete when timer = timer_t308 -> disarm t r
    | _ -> ());
    step_call t ~now r (Fsm.Recv m.Sigmsg.typ)

let on_wire t ~now frame =
  let o = Sscop_conn.on_receive t.sscop ~now frame in
  let base = of_sscop { o with Sscop_conn.deliveries = [] } in
  let link_events =
    List.filter_map
      (function
        | Sscop_conn.Connected ->
          t.ready <- true;
          Some Link_up
        | Sscop_conn.Released ->
          t.ready <- false;
          Some (Link_down "peer released")
        | Sscop_conn.Reset reason ->
          t.ready <- false;
          Some (Link_down reason))
      o.Sscop_conn.events
  in
  List.fold_left
    (fun acc wire -> acc ++ on_signalling t ~now wire)
    (base ++ { empty with events = link_events })
    o.Sscop_conn.deliveries

(* A loop over the rows' deadlines, which are [infinity] on free rows and
   unarmed calls: the mesh asks after every outcome. *)
let next_deadline t =
  let d = t.deadlines in
  let calls = ref infinity in
  for r = 0 to Array.length d - 1 do
    let x = Array.unsafe_get d r in
    if x < !calls then calls := x
  done;
  match Sscop_conn.next_deadline t.sscop with
  | Some s -> Some (Float.min s !calls)
  | None -> if !calls < infinity then Some !calls else None

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
      { empty with events = [ Call_failed (call_ref, "T303 expired") ] }
    end
  else if first then begin
    arm t r timer_t308 ~tries:1 (now +. t308);
    ship t ~now ~call_ref ~from_originator:(t.rows.(b + c_orig) = 1)
      Sigmsg.Release []
  end
  else begin
    remove_call t r;
    { empty with events = [ Call_failed (call_ref, "T308 expired") ] }
  end

let tick t ~now =
  (* SSCOP timers first. *)
  let o = Sscop_conn.tick t.sscop ~now in
  let link_events =
    List.filter_map
      (function
        | Sscop_conn.Reset reason ->
          t.ready <- false;
          Some (Link_down reason)
        | Sscop_conn.Connected ->
          t.ready <- true;
          Some Link_up
        | Sscop_conn.Released ->
          t.ready <- false;
          Some (Link_down "released"))
      o.Sscop_conn.events
  in
  (* Then the Q.93B supervision timers.  An expiry re-arms or frees only
     its own row. *)
  let rec fire acc above =
    let r = next_expired t ~now ~above in
    if r < 0 then acc
    else begin
      guard t;
      let call_ref = t.rows.((r * width) + c_ref) in
      let out = expire t ~now r in
      fire (acc ++ out) call_ref
    end
  in
  fire (of_sscop o ++ { empty with events = link_events }) (-1)
