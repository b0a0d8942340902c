type state = Idle | Outgoing | Ready | Ending

let state_name = function
  | Idle -> "idle"
  | Outgoing -> "outgoing"
  | Ready -> "ready"
  | Ending -> "ending"

type config = {
  poll_interval : float;
  response_timeout : float;
  max_retransmissions : int;
}

let default_config =
  { poll_interval = 0.1; response_timeout = 0.5; max_retransmissions = 4 }

type event = Connected | Released | Reset of string

type outcome = {
  deliveries : bytes list;
  to_send : bytes list;
  events : event list;
}

let no_outcome = { deliveries = []; to_send = []; events = [] }

type t = {
  cfg : config;
  mutable core : Sscop.t;
  mutable st : state;
  mutable deadline : float option;
  mutable retrans : int;  (* consecutive unanswered BGN/END/POLL rounds *)
}

let create ?(config = default_config) () =
  if config.poll_interval <= 0.0 || config.response_timeout <= 0.0 then
    invalid_arg "Sscop_conn.create: timers must be positive";
  if config.max_retransmissions < 0 then
    invalid_arg "Sscop_conn.create: negative retransmission budget";
  { cfg = config; core = Sscop.create (); st = Idle; deadline = None; retrans = 0 }

let state t = t.st

let next_deadline t = t.deadline

let unacked t = Sscop.unacked_count t.core

let ctrl tag = Sscop.frame ~tag ~seq:0 Bytes.empty

let arm t ~now delay = t.deadline <- Some (now +. delay)

let disarm t = t.deadline <- None

let reset t reason =
  t.st <- Idle;
  disarm t;
  t.retrans <- 0;
  (* A reset abandons all connection state, including unacknowledged
     data — the upper layer is told via the event and must recover. *)
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
    (* Arm the keep-alive poll if this is the first outstanding frame. *)
    if t.deadline = None then arm t ~now t.cfg.poll_interval;
    Ok { no_outcome with to_send = [ frame ] }
  | _ -> Error `Not_ready

let release t ~now =
  match t.st with
  | Ready | Outgoing ->
    t.st <- Ending;
    t.retrans <- 0;
    arm t ~now t.cfg.response_timeout;
    { no_outcome with to_send = [ ctrl 'E' ] }
  | _ -> no_outcome

let on_ack_progress t =
  t.retrans <- 0;
  if unacked t = 0 then disarm t

let on_receive t ~now frame =
  match Sscop.parse frame with
  | Error _ -> no_outcome
  | Ok (tag, _seq, _payload) -> (
    match (tag, t.st) with
    (* Establishment. *)
    | 'B', Idle ->
      t.st <- Ready;
      disarm t;
      { no_outcome with to_send = [ ctrl 'G' ]; events = [ Connected ] }
    | 'B', Ready ->
      (* Duplicate BGN (our BGAK was lost): re-acknowledge. *)
      { no_outcome with to_send = [ ctrl 'G' ] }
    | 'G', Outgoing ->
      t.st <- Ready;
      disarm t;
      t.retrans <- 0;
      { no_outcome with events = [ Connected ] }
    (* Release. *)
    | 'E', (Idle | Outgoing | Ready | Ending) ->
      let was = t.st in
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
    (* Data transfer (Ready only). *)
    | 'D', Ready -> (
      match Sscop.on_receive t.core frame with
      | Sscop.Deliver payload ->
        { no_outcome with deliveries = [ payload ]; to_send = [ Sscop.make_ack t.core ] }
      | Sscop.Out_of_order _ ->
        (* Re-ack at the expected number so the peer retransmits. *)
        { no_outcome with to_send = [ Sscop.make_ack t.core ] }
      | Sscop.Ack_processed _ | Sscop.Malformed _ -> no_outcome)
    | 'A', Ready -> (
      match Sscop.on_receive t.core frame with
      | Sscop.Ack_processed _ ->
        on_ack_progress t;
        if unacked t > 0 && t.deadline = None then
          arm t ~now t.cfg.poll_interval;
        no_outcome
      | _ -> no_outcome)
    (* Keep-alive. *)
    | 'P', Ready ->
      { no_outcome with to_send = [ Sscop.frame ~tag:'S' ~seq:(Sscop.next_expected_seq t.core) Bytes.empty ] }
    | 'S', Ready -> (
      (* STAT is a cumulative ack: reuse the core's ack handling. *)
      match Sscop.parse frame with
      | Ok (_, seq, _) -> (
        match Sscop.on_receive t.core (Sscop.frame ~tag:'A' ~seq Bytes.empty) with
        | Sscop.Ack_processed _ ->
          on_ack_progress t;
          if unacked t > 0 && t.deadline = None then
            arm t ~now t.cfg.poll_interval;
          no_outcome
        | _ -> no_outcome)
      | Error _ -> no_outcome)
    (* Everything else is ignorable in the current state. *)
    | _ -> no_outcome)

let tick t ~now =
  match t.deadline with
  | Some d when now >= d -> (
    match t.st with
    | Outgoing ->
      if t.retrans >= t.cfg.max_retransmissions then
        reset t "connection establishment timed out"
      else begin
        t.retrans <- t.retrans + 1;
        arm t ~now t.cfg.response_timeout;
        { no_outcome with to_send = [ ctrl 'B' ] }
      end
    | Ending ->
      if t.retrans >= t.cfg.max_retransmissions then
        reset t "release timed out"
      else begin
        t.retrans <- t.retrans + 1;
        arm t ~now t.cfg.response_timeout;
        { no_outcome with to_send = [ ctrl 'E' ] }
      end
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
            Sscop.retransmit t.core
            @ [ Sscop.frame ~tag:'P' ~seq:(Sscop.next_send_seq t.core) Bytes.empty ];
        }
      end
    | Idle ->
      disarm t;
      no_outcome)
  | _ -> no_outcome
