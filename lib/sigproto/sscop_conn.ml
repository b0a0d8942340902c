type state = Idle | Outgoing | Ready | Ending

type config = {
  poll_interval : float;
  response_timeout : float;
  max_retransmissions : int;
}

let default_config =
  { poll_interval = 0.1; response_timeout = 0.5; max_retransmissions = 4 }

(* The one timer's deadline is slot 0 of [deadline], an unboxed float
   ([infinity] when disarmed): arming it allocates nothing. *)
type t = {
  cfg : config;
  mutable core : Sscop.t;
  mutable st : state;
  deadline : float array;
  mutable retrans : int;  (* consecutive unanswered BGN/END/POLL rounds *)
}

let create ?(config = default_config) () =
  if config.poll_interval <= 0.0 || config.response_timeout <= 0.0 then
    invalid_arg "Sscop_conn.create: timers must be positive";
  if config.max_retransmissions < 0 then
    invalid_arg "Sscop_conn.create: negative retransmission budget";
  {
    cfg = config;
    core = Sscop.create ();
    st = Idle;
    deadline = [| infinity |];
    retrans = 0;
  }

let state t = t.st

let[@inline] next_deadline t = Array.unsafe_get t.deadline 0

let unacked t = Sscop.unacked_count t.core

let ctrl ob tag = Outbox.add_frame ob (Sscop.frame ~tag ~seq:0 Bytes.empty)

let arm t ~now delay = Array.unsafe_set t.deadline 0 (now +. delay)

let disarm t = Array.unsafe_set t.deadline 0 infinity

let unarmed t = next_deadline t = infinity

let link_down ob reason = Outbox.add_event ob Outbox.Link_down ~call_ref:0 reason

let reset t ob reason =
  t.st <- Idle;
  disarm t;
  t.retrans <- 0;
  (* A reset abandons all connection state, including unacknowledged
     data — the upper layer is told via the event and must recover. *)
  t.core <- Sscop.create ();
  link_down ob reason

let begin_connection t ~now ob =
  if t.st = Idle then begin
    t.st <- Outgoing;
    t.retrans <- 0;
    arm t ~now t.cfg.response_timeout;
    ctrl ob 'B'
  end

let reserve t ~now ob n =
  if t.st <> Ready then invalid_arg "Sscop_conn.reserve: not ready";
  let f = Sscop.reserve t.core n in
  (* Arm the keep-alive poll if this is the first outstanding frame. *)
  if unarmed t then arm t ~now t.cfg.poll_interval;
  Outbox.add_frame ob f;
  f

let release t ~now ob =
  match t.st with
  | Ready | Outgoing ->
    t.st <- Ending;
    t.retrans <- 0;
    arm t ~now t.cfg.response_timeout;
    ctrl ob 'E'
  | Idle | Ending -> ()

(* A cumulative ack (or STAT) was applied. *)
let ack_progress t ~now =
  t.retrans <- 0;
  if unacked t = 0 then disarm t
  else if unarmed t then arm t ~now t.cfg.poll_interval

let connected t ob =
  t.st <- Ready;
  disarm t;
  Outbox.add_event ob Outbox.Link_up ~call_ref:0 ""

let input t ~now ob buf off len =
  if len < Sscop.header_bytes then false
  else
    match (Bytes.get buf off, t.st) with
    (* Establishment. *)
    | 'B', Idle ->
      connected t ob;
      ctrl ob 'G';
      false
    | 'B', Ready ->
      (* Duplicate BGN (our BGAK was lost): re-acknowledge. *)
      ctrl ob 'G';
      false
    | 'G', Outgoing ->
      t.retrans <- 0;
      connected t ob;
      false
    (* Release. *)
    | 'E', was ->
      t.st <- Idle;
      disarm t;
      ctrl ob 'F';
      if was <> Idle then link_down ob "peer released";
      false
    | 'F', Ending ->
      t.st <- Idle;
      disarm t;
      link_down ob "peer released";
      false
    (* Data transfer (Ready only). *)
    | 'D', Ready -> (
      match Sscop.input t.core buf off len with
      | Sscop.Delivered ->
        Outbox.add_frame ob (Sscop.make_ack t.core);
        true
      | Sscop.Unexpected ->
        (* Re-ack at the expected number so the peer retransmits. *)
        Outbox.add_frame ob (Sscop.make_ack t.core);
        false
      | Sscop.Acked | Sscop.Invalid -> false)
    | 'A', Ready ->
      Sscop.acknowledge t.core buf off;
      ack_progress t ~now;
      false
    (* Keep-alive. *)
    | 'P', Ready ->
      Outbox.add_frame ob
        (Sscop.frame ~tag:'S' ~seq:(Sscop.next_expected_seq t.core) Bytes.empty);
      false
    | 'S', Ready ->
      (* STAT is a cumulative ack. *)
      Sscop.acknowledge t.core buf off;
      ack_progress t ~now;
      false
    (* Everything else is ignorable in the current state. *)
    | _ -> false

let rec retransmit t ob i =
  if i < Sscop.unacked_count t.core then begin
    Outbox.add_frame ob (Sscop.retransmit t.core i);
    retransmit t ob (i + 1)
  end

(* Resend [tag] on the response timer, or reset once the budget is
   spent. *)
let resend t ~now ob tag reason =
  if t.retrans >= t.cfg.max_retransmissions then reset t ob reason
  else begin
    t.retrans <- t.retrans + 1;
    arm t ~now t.cfg.response_timeout;
    ctrl ob tag
  end

let tick t ~now ob =
  if now >= next_deadline t then
    match t.st with
    | Outgoing -> resend t ~now ob 'B' "connection establishment timed out"
    | Ending -> resend t ~now ob 'E' "release timed out"
    | Ready ->
      if unacked t = 0 then disarm t
      else if t.retrans >= t.cfg.max_retransmissions then
        reset t ob "peer stopped acknowledging"
      else begin
        t.retrans <- t.retrans + 1;
        arm t ~now t.cfg.poll_interval;
        retransmit t ob 0;
        Outbox.add_frame ob
          (Sscop.frame ~tag:'P' ~seq:(Sscop.next_send_seq t.core) Bytes.empty)
      end
    | Idle -> disarm t
