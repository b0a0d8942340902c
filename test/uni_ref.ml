(* The record-form UNI endpoint over a record-form connection-managed
   SSCOP: the endpoint that [Uni] and [Sscop_conn] replaced, kept as the
   reference the cursor endpoint is compared against.  Every operation
   returns the frames to transmit and the events it raised as lists;
   every Q.93B message is decoded into a [Sigmsg.t] and every reply is
   encoded from one.  Calls live in a hash table. *)

open Ldlp_sigproto

module Conn = struct
  type event = Connected | Released | Reset of string

  type outcome = {
    deliveries : bytes list;
    to_send : bytes list;
    events : event list;
  }

  let no_outcome = { deliveries = []; to_send = []; events = [] }

  type t = {
    cfg : Sscop_conn.config;
    mutable core : Sscop.t;
    mutable st : Sscop_conn.state;
    mutable deadline : float option;
    mutable retrans : int;
  }

  let create ?(config = Sscop_conn.default_config) () =
    { cfg = config; core = Sscop.create (); st = Idle; deadline = None; retrans = 0 }

  let unacked t = Sscop.unacked_count t.core

  let ctrl tag = Sscop.frame ~tag ~seq:0 Bytes.empty

  let arm t ~now delay = t.deadline <- Some (now +. delay)

  let disarm t = t.deadline <- None

  let reset t reason =
    t.st <- Idle;
    disarm t;
    t.retrans <- 0;
    t.core <- Sscop.create ();
    { no_outcome with events = [ Reset reason ] }

  let begin_connection t ~now =
    match t.st with
    | Idle ->
      t.st <- Outgoing;
      t.retrans <- 0;
      arm t ~now t.cfg.response_timeout;
      { no_outcome with to_send = [ ctrl 'B' ] }
    | _ -> no_outcome

  let send t ~now payload =
    match t.st with
    | Ready ->
      let frame = Sscop.send t.core payload in
      if t.deadline = None then arm t ~now t.cfg.poll_interval;
      Ok { no_outcome with to_send = [ frame ] }
    | _ -> Error `Not_ready

  let ack_progress t ~now =
    t.retrans <- 0;
    if unacked t = 0 then disarm t;
    if unacked t > 0 && t.deadline = None then arm t ~now t.cfg.poll_interval

  let on_receive t ~now frame =
    if Bytes.length frame < Sscop.header_bytes then no_outcome
    else
      match (Bytes.get frame 0, t.st) with
      | 'B', Idle ->
        t.st <- Ready;
        disarm t;
        { no_outcome with to_send = [ ctrl 'G' ]; events = [ Connected ] }
      | 'B', Ready -> { no_outcome with to_send = [ ctrl 'G' ] }
      | 'G', Outgoing ->
        t.st <- Ready;
        disarm t;
        t.retrans <- 0;
        { no_outcome with events = [ Connected ] }
      | 'E', was ->
        t.st <- Idle;
        disarm t;
        {
          no_outcome with
          to_send = [ ctrl 'F' ];
          events = (if was = Idle then [] else [ Released ]);
        }
      | 'F', Ending ->
        t.st <- Idle;
        disarm t;
        { no_outcome with events = [ Released ] }
      | 'D', Ready -> (
        match Sscop.on_receive t.core frame with
        | Sscop.Deliver payload ->
          { no_outcome with deliveries = [ payload ]; to_send = [ Sscop.make_ack t.core ] }
        | Sscop.Out_of_order _ -> { no_outcome with to_send = [ Sscop.make_ack t.core ] }
        | Sscop.Ack_processed _ | Sscop.Malformed _ -> no_outcome)
      | 'A', Ready -> (
        match Sscop.on_receive t.core frame with
        | Sscop.Ack_processed _ ->
          ack_progress t ~now;
          no_outcome
        | _ -> no_outcome)
      | 'P', Ready ->
        {
          no_outcome with
          to_send =
            [ Sscop.frame ~tag:'S' ~seq:(Sscop.next_expected_seq t.core) Bytes.empty ];
        }
      | 'S', Ready -> (
        (* STAT is a cumulative ack: the core's ack handling, on an ACK
           frame built from it. *)
        let seq =
          (Bytes.get_uint8 frame 1 lsl 16) lor Bytes.get_uint16_be frame 2
        in
        match Sscop.on_receive t.core (Sscop.frame ~tag:'A' ~seq Bytes.empty) with
        | Sscop.Ack_processed _ ->
          ack_progress t ~now;
          no_outcome
        | _ -> no_outcome)
      | _ -> no_outcome

  let tick t ~now =
    match t.deadline with
    | Some d when now >= d -> (
      let resend tag reason =
        if t.retrans >= t.cfg.max_retransmissions then reset t reason
        else begin
          t.retrans <- t.retrans + 1;
          arm t ~now t.cfg.response_timeout;
          { no_outcome with to_send = [ ctrl tag ] }
        end
      in
      match t.st with
      | Outgoing -> resend 'B' "connection establishment timed out"
      | Ending -> resend 'E' "release timed out"
      | Ready ->
        if unacked t = 0 then begin
          disarm t;
          no_outcome
        end
        else if t.retrans >= t.cfg.max_retransmissions then
          reset t "peer stopped acknowledging"
        else begin
          t.retrans <- t.retrans + 1;
          arm t ~now t.cfg.poll_interval;
          {
            no_outcome with
            to_send =
              List.init (unacked t) (Sscop.retransmit t.core)
              @ [ Sscop.frame ~tag:'P' ~seq:(Sscop.next_send_seq t.core) Bytes.empty ];
          }
        end
      | Idle ->
        disarm t;
        no_outcome)
    | _ -> no_outcome

  let next_deadline t = t.deadline
end

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

type timer = No_timer | T303 | T308

type call = {
  mutable state : Fsm.state;
  mutable timer : timer;
  mutable tries : int;
  orig : bool;
  mutable deadline : float;
  mutable ies : Ie.t list;
}

type t = {
  sscop : Conn.t;
  calls : (int, call) Hashtbl.t;
  mutable ready : bool;
}

let t303 = 4.0

let t308 = 30.0

let create ?sscop () =
  { sscop = Conn.create ?config:sscop (); calls = Hashtbl.create 8; ready = false }

let link_ready t = t.ready

let active_calls t = Hashtbl.length t.calls

let call_state t ~call_ref =
  Option.map (fun c -> c.state) (Hashtbl.find_opt t.calls call_ref)

let add_call t call_ref ~orig ies =
  let c = { state = Fsm.Null; timer = No_timer; tries = 0; orig; deadline = infinity; ies } in
  Hashtbl.replace t.calls call_ref c;
  c

let arm c timer ~tries deadline =
  c.timer <- timer;
  c.tries <- tries;
  c.deadline <- deadline

let disarm c =
  c.timer <- No_timer;
  c.deadline <- infinity

let of_conn (o : Conn.outcome) = { to_wire = o.Conn.to_send; events = [] }

let ship t ~now ~call_ref ~from_originator typ ies =
  let wire = Sigmsg.encode (Sigmsg.v ~from_originator ~call_ref typ ies) in
  match Conn.send t.sscop ~now wire with Ok o -> of_conn o | Error `Not_ready -> empty

let link_events t (o : Conn.outcome) =
  List.map
    (function
      | Conn.Connected ->
        t.ready <- true;
        Link_up
      | Conn.Released ->
        t.ready <- false;
        Link_down "peer released"
      | Conn.Reset reason ->
        t.ready <- false;
        Link_down reason)
    o.Conn.events

let link_up t ~now = of_conn (Conn.begin_connection t.sscop ~now)

let step_call t ~now call_ref c ev =
  match Fsm.step c.state ev with
  | Fsm.Protocol_error e ->
    if c.state = Fsm.Null then Hashtbl.remove t.calls call_ref;
    ship t ~now ~call_ref ~from_originator:(not c.orig) Sigmsg.Status []
    ++ { empty with events = [ Call_failed (call_ref, e) ] }
  | Fsm.Ok_next (state', actions) ->
    c.state <- state';
    let out =
      List.fold_left
        (fun acc action ->
          acc
          ++
          match action with
          | Fsm.Send typ ->
            let ies = if typ = Sigmsg.Setup then c.ies else [] in
            ship t ~now ~call_ref ~from_originator:c.orig typ ies
          | Fsm.Notify_setup -> { empty with events = [ Call_offered (call_ref, c.ies) ] }
          | Fsm.Notify_connected ->
            disarm c;
            { empty with events = [ Call_connected call_ref ] }
          | Fsm.Notify_released ->
            disarm c;
            { empty with events = [ Call_released call_ref ] })
        empty actions
    in
    if Fsm.is_terminal state' then Hashtbl.remove t.calls call_ref;
    out

let originate t ~now ~call_ref ies =
  if not t.ready then Error `Link_down
  else if Hashtbl.mem t.calls call_ref then Error `Busy_ref
  else begin
    let c = add_call t call_ref ~orig:true ies in
    let out = step_call t ~now call_ref c Fsm.Api_setup in
    arm c T303 ~tries:0 (now +. t303);
    Ok out
  end

let abort t ~call_ref =
  let had = Hashtbl.mem t.calls call_ref in
  Hashtbl.remove t.calls call_ref;
  had

let accept t ~now ~call_ref =
  match Hashtbl.find_opt t.calls call_ref with
  | None -> Error `No_call
  | Some c -> Ok (step_call t ~now call_ref c Fsm.Api_accept)

let hangup t ~now ~call_ref =
  match Hashtbl.find_opt t.calls call_ref with
  | None -> Error `No_call
  | Some c ->
    let out = step_call t ~now call_ref c Fsm.Api_release in
    if Hashtbl.mem t.calls call_ref then arm c T308 ~tries:0 (now +. t308);
    Ok out

let on_signalling t ~now wire =
  match Sigmsg.decode wire with
  | Error _ -> empty
  | Ok m ->
    let call_ref = m.Sigmsg.call_ref in
    let c =
      match Hashtbl.find_opt t.calls call_ref with
      | Some c -> c
      | None -> add_call t call_ref ~orig:false m.Sigmsg.ies
    in
    if m.Sigmsg.typ = Sigmsg.Setup then c.ies <- m.Sigmsg.ies;
    (match (m.Sigmsg.typ, c.timer) with
    | (Sigmsg.Call_proceeding | Sigmsg.Connect), T303 -> disarm c
    | Sigmsg.Release_complete, T308 -> disarm c
    | _ -> ());
    step_call t ~now call_ref c (Fsm.Recv m.Sigmsg.typ)

let on_wire t ~now frame =
  let o = Conn.on_receive t.sscop ~now frame in
  let events = link_events t o in
  List.fold_left
    (fun acc wire -> acc ++ on_signalling t ~now wire)
    { (of_conn o) with events }
    o.Conn.deliveries

let next_deadline t =
  let calls = Hashtbl.fold (fun _ c acc -> Float.min c.deadline acc) t.calls infinity in
  match Conn.next_deadline t.sscop with
  | Some s -> Some (Float.min s calls)
  | None -> if calls < infinity then Some calls else None

let expire t ~now call_ref c =
  let first = c.tries = 0 in
  match c.timer with
  | T303 when first ->
    arm c T303 ~tries:1 (now +. t303);
    ship t ~now ~call_ref ~from_originator:true Sigmsg.Setup c.ies
  | T308 when first ->
    arm c T308 ~tries:1 (now +. t308);
    ship t ~now ~call_ref ~from_originator:c.orig Sigmsg.Release []
  | T303 | T308 ->
    Hashtbl.remove t.calls call_ref;
    {
      empty with
      events =
        [ Call_failed (call_ref, if c.timer = T303 then "T303 expired" else "T308 expired") ];
    }
  | No_timer -> empty

(* Expiries fire in ascending call-reference order. *)
let tick t ~now =
  let o = Conn.tick t.sscop ~now in
  let events = link_events t o in
  let expired =
    Hashtbl.fold
      (fun call_ref c acc ->
        if c.timer <> No_timer && not (now < c.deadline) then (call_ref, c) :: acc
        else acc)
      t.calls []
  in
  List.fold_left
    (fun acc (call_ref, c) -> acc ++ expire t ~now call_ref c)
    { (of_conn o) with events }
    (List.sort (fun (a, _) (b, _) -> compare a b) expired)
