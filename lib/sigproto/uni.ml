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

type timer = T303_running of int (* retransmissions so far *) | T308_running of int

type call = {
  mutable fsm : Fsm.state;
  mutable timer : (timer * float) option;  (* kind, deadline *)
  mutable last_setup_ies : Ie.t list;
  from_originator : bool;
}

module Flowtable = Ldlp_flowtable.Flowtable

type t = {
  sscop : Sscop_conn.t;
  t303 : float;
  t308 : float;
  calls : (int, call) Flowtable.t;
  mutable ready : bool;
}

let create ?sscop ?(t303 = 4.0) ?(t308 = 30.0) () =
  {
    sscop = Sscop_conn.create ?config:sscop ();
    t303;
    t308;
    (* [buckets] matches the Hashtbl.create 16 this map replaced: the
       backing store's fold order — which drives tick/deadline event
       ordering in the mesh storms — is preserved byte for byte. *)
    calls = Flowtable.create ~buckets:16 ~name:"uni-calls" ();
    ready = false;
  }

let link_ready t = t.ready

let active_calls t = Flowtable.length t.calls

let call_state t ~call_ref =
  Option.map (fun c -> c.fsm) (Flowtable.lookup t.calls call_ref)

let of_sscop (o : Sscop_conn.outcome) =
  { to_wire = o.Sscop_conn.to_send; events = [] }

(* Send one Q.93B message through the assured connection. *)
let ship t ~now ~call_ref ~from_originator typ ies =
  let wire = Sigmsg.encode (Sigmsg.v ~from_originator ~call_ref typ ies) in
  match Sscop_conn.send t.sscop ~now wire with
  | Ok o -> of_sscop o
  | Error `Not_ready -> empty

let link_up t ~now = of_sscop (Sscop_conn.begin_connection t.sscop ~now)

let fresh_call ~from_originator =
  { fsm = Fsm.Null; timer = None; last_setup_ies = []; from_originator }

let step_call t ~now call_ref (call : call) ev =
  match Fsm.step call.fsm ev with
  | Fsm.Protocol_error e ->
    (* Answer with STATUS per Q.93B and surface the error; a call that
       never left Null holds no state worth keeping. *)
    if call.fsm = Fsm.Null then Flowtable.remove t.calls call_ref;
    ship t ~now ~call_ref ~from_originator:(not call.from_originator)
      Sigmsg.Status []
    ++ { empty with events = [ Call_failed (call_ref, e) ] }
  | Fsm.Ok_next (state', actions) ->
    call.fsm <- state';
    let out =
      List.fold_left
        (fun acc action ->
          match action with
          | Fsm.Send typ ->
            let ies =
              if typ = Sigmsg.Setup then call.last_setup_ies else []
            in
            acc
            ++ ship t ~now ~call_ref ~from_originator:call.from_originator typ
                 ies
          | Fsm.Notify_setup ->
            acc
            ++ { empty with events = [ Call_offered (call_ref, call.last_setup_ies) ] }
          | Fsm.Notify_connected ->
            call.timer <- None;
            acc ++ { empty with events = [ Call_connected call_ref ] }
          | Fsm.Notify_released ->
            call.timer <- None;
            acc ++ { empty with events = [ Call_released call_ref ] })
        empty actions
    in
    if Fsm.is_terminal call.fsm then Flowtable.remove t.calls call_ref;
    out

let originate t ~now ~call_ref ies =
  if not t.ready then Error `Link_down
  else if Flowtable.mem t.calls call_ref then Error `Busy_ref
  else begin
    let call = fresh_call ~from_originator:true in
    call.last_setup_ies <- ies;
    Flowtable.insert t.calls call_ref call;
    let out = step_call t ~now call_ref call Fsm.Api_setup in
    call.timer <- Some (T303_running 0, now +. t.t303);
    Ok out
  end

let abort t ~call_ref =
  let existed = Flowtable.mem t.calls call_ref in
  Flowtable.remove t.calls call_ref;
  existed

let accept t ~now ~call_ref =
  match Flowtable.lookup t.calls call_ref with
  | None -> Error `No_call
  | Some call -> Ok (step_call t ~now call_ref call Fsm.Api_accept)

let hangup t ~now ~call_ref =
  match Flowtable.lookup t.calls call_ref with
  | None -> Error `No_call
  | Some call ->
    let out = step_call t ~now call_ref call Fsm.Api_release in
    if Flowtable.mem t.calls call_ref then
      call.timer <- Some (T308_running 0, now +. t.t308);
    Ok out

let on_signalling t ~now wire =
  match Sigmsg.decode wire with
  | Error _ -> empty
  | Ok m ->
    let call_ref = m.Sigmsg.call_ref in
    let call =
      match Flowtable.lookup t.calls call_ref with
      | Some c -> c
      | None ->
        let c = fresh_call ~from_originator:false in
        c.last_setup_ies <- m.Sigmsg.ies;
        Flowtable.insert t.calls call_ref c;
        c
    in
    if m.Sigmsg.typ = Sigmsg.Setup then call.last_setup_ies <- m.Sigmsg.ies;
    (* Any response to SETUP / RELEASE stops the supervision timer. *)
    (match (call.timer, m.Sigmsg.typ) with
    | Some (T303_running _, _), (Sigmsg.Call_proceeding | Sigmsg.Connect) ->
      call.timer <- None
    | Some (T308_running _, _), Sigmsg.Release_complete -> call.timer <- None
    | _ -> ());
    step_call t ~now call_ref call (Fsm.Recv m.Sigmsg.typ)

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

let call_deadlines t =
  Flowtable.fold
    (fun call_ref call acc ->
      match call.timer with
      | Some (_, d) -> (call_ref, call, d) :: acc
      | None -> acc)
    t.calls []

let earliest_timer _ call acc =
  match call.timer with Some (_, d) -> Float.min acc d | None -> acc

(* A fold, not a list of the timers: the mesh asks after every outcome. *)
let next_deadline t =
  let calls = Flowtable.fold earliest_timer t.calls infinity in
  match Sscop_conn.next_deadline t.sscop with
  | Some d -> Some (Float.min d calls)
  | None -> if calls < infinity then Some calls else None

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
  let base = of_sscop o ++ { empty with events = link_events } in
  (* Q.93B supervision timers. *)
  List.fold_left
    (fun acc (call_ref, call, deadline) ->
      if now < deadline then acc
      else begin
        match call.timer with
        | Some (T303_running n, _) when n = 0 ->
          (* First expiry: retransmit SETUP, re-arm once. *)
          call.timer <- Some (T303_running 1, now +. t.t303);
          acc
          ++ ship t ~now ~call_ref ~from_originator:true Sigmsg.Setup
               call.last_setup_ies
        | Some (T303_running _, _) ->
          Flowtable.remove t.calls call_ref;
          acc ++ { empty with events = [ Call_failed (call_ref, "T303 expired") ] }
        | Some (T308_running n, _) when n = 0 ->
          call.timer <- Some (T308_running 1, now +. t.t308);
          acc ++ ship t ~now ~call_ref ~from_originator:call.from_originator Sigmsg.Release []
        | Some (T308_running _, _) ->
          Flowtable.remove t.calls call_ref;
          acc ++ { empty with events = [ Call_failed (call_ref, "T308 expired") ] }
        | None -> acc
      end)
    base (call_deadlines t)
