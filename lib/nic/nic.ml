module Rqueue = Ldlp_core.Rqueue

type irq_mode = Per_frame | Coalesced of int

type stats = {
  rx_frames : int;
  rx_drops : int;
  tx_frames : int;
  tx_drops : int;
  interrupts : int;
}

(* Each ring is an [Rqueue] under the adaptor's own slot bound: a push
   at [rx_slots]/[tx_slots] is refused (the caller counts the drop), so
   the queue's own growth stops at the bound. *)
type 'a t = {
  rx : 'a Rqueue.t;
  tx : 'a Rqueue.t;
  rx_slots : int;
  tx_slots : int;
  irq : irq_mode;
  mutable since_irq : int;  (* frames received since the last interrupt *)
  mutable pending : bool;
  mutable s : stats;
}

let create ?(rx_slots = 64) ?(tx_slots = 64) ?(irq = Per_frame) () =
  (match irq with
  | Coalesced n when n <= 0 -> invalid_arg "Nic.create: coalescing must be positive"
  | _ -> ());
  if rx_slots <= 0 || tx_slots <= 0 then
    invalid_arg "Nic.create: slots must be positive";
  {
    rx = Rqueue.create ();
    tx = Rqueue.create ();
    rx_slots;
    tx_slots;
    irq;
    since_irq = 0;
    pending = false;
    s = { rx_frames = 0; rx_drops = 0; tx_frames = 0; tx_drops = 0; interrupts = 0 };
  }

let push q ~slots v =
  if Rqueue.length q >= slots then false
  else begin
    Rqueue.push q v;
    true
  end

let pop q = if Rqueue.is_empty q then None else Some (Rqueue.pop q)

let pop_all q =
  let rec go acc = if Rqueue.is_empty q then List.rev acc else go (Rqueue.pop q :: acc) in
  go []

let raise_irq t =
  if not t.pending then begin
    t.pending <- true;
    t.s <- { t.s with interrupts = t.s.interrupts + 1 }
  end;
  t.since_irq <- 0

let deliver t frame =
  if push t.rx ~slots:t.rx_slots frame then begin
    t.s <- { t.s with rx_frames = t.s.rx_frames + 1 };
    t.since_irq <- t.since_irq + 1;
    (match t.irq with
    | Per_frame -> raise_irq t
    | Coalesced n ->
      if t.since_irq >= n || Rqueue.length t.rx = t.rx_slots then raise_irq t);
    true
  end
  else begin
    t.s <- { t.s with rx_drops = t.s.rx_drops + 1 };
    false
  end

let wire_take t =
  let v = pop t.tx in
  if v <> None then begin
    t.s <- { t.s with tx_frames = t.s.tx_frames + 1 }
  end;
  v

let wire_take_all t =
  let frames = pop_all t.tx in
  let n = List.length frames in
  t.s <- { t.s with tx_frames = t.s.tx_frames + n };
  frames

let irq_pending t = t.pending

let ack_irq t =
  t.pending <- false;
  t.since_irq <- 0

let rx_available t = Rqueue.length t.rx

let take_all t =
  ack_irq t;
  pop_all t.rx

let take t = pop t.rx

let transmit t frame =
  if push t.tx ~slots:t.tx_slots frame then true
  else begin
    t.s <- { t.s with tx_drops = t.s.tx_drops + 1 };
    false
  end

let stats t = t.s

let service_into t eng ~node ~wrap =
  List.fold_left
    (fun moved f ->
      if Ldlp_core.Engine.try_inject eng ~node (wrap f) then moved + 1 else moved)
    0 (take_all t)
