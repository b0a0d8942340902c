module Metrics = Ldlp_obs.Metrics
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
  metrics : Metrics.t option;
  (* Scalar mirrors of [stats] on the metric sheet; dummies when no sheet
     is attached so the hot paths stay branch-plus-store simple. *)
  rx_frames_sc : int ref;
  rx_drops_sc : int ref;
  tx_frames_sc : int ref;
  tx_drops_sc : int ref;
  interrupts_sc : int ref;
}

let create ?(rx_slots = 64) ?(tx_slots = 64) ?(irq = Per_frame) ?metrics () =
  (match irq with
  | Coalesced n when n <= 0 -> invalid_arg "Nic.create: coalescing must be positive"
  | _ -> ());
  if rx_slots <= 0 || tx_slots <= 0 then
    invalid_arg "Nic.create: slots must be positive";
  let sc name =
    match metrics with None -> ref 0 | Some m -> Metrics.scalar m name
  in
  {
    rx = Rqueue.create ();
    tx = Rqueue.create ();
    rx_slots;
    tx_slots;
    irq;
    since_irq = 0;
    pending = false;
    s = { rx_frames = 0; rx_drops = 0; tx_frames = 0; tx_drops = 0; interrupts = 0 };
    metrics;
    rx_frames_sc = sc "rx_frames";
    rx_drops_sc = sc "rx_drops";
    tx_frames_sc = sc "tx_frames";
    tx_drops_sc = sc "tx_drops";
    interrupts_sc = sc "interrupts";
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
    t.s <- { t.s with interrupts = t.s.interrupts + 1 };
    Metrics.add_scalar t.interrupts_sc 1
  end;
  t.since_irq <- 0

let deliver t frame =
  if push t.rx ~slots:t.rx_slots frame then begin
    t.s <- { t.s with rx_frames = t.s.rx_frames + 1 };
    Metrics.add_scalar t.rx_frames_sc 1;
    (match t.metrics with
    | None -> ()
    | Some m -> Metrics.arrival m ~depth:(Rqueue.length t.rx));
    t.since_irq <- t.since_irq + 1;
    (match t.irq with
    | Per_frame -> raise_irq t
    | Coalesced n ->
      if t.since_irq >= n || Rqueue.length t.rx = t.rx_slots then raise_irq t);
    true
  end
  else begin
    t.s <- { t.s with rx_drops = t.s.rx_drops + 1 };
    Metrics.add_scalar t.rx_drops_sc 1;
    false
  end

let wire_take t =
  let v = pop t.tx in
  if v <> None then begin
    t.s <- { t.s with tx_frames = t.s.tx_frames + 1 };
    Metrics.add_scalar t.tx_frames_sc 1
  end;
  v

let wire_take_all t =
  let frames = pop_all t.tx in
  let n = List.length frames in
  t.s <- { t.s with tx_frames = t.s.tx_frames + n };
  Metrics.add_scalar t.tx_frames_sc n;
  frames

let irq_pending t = t.pending

let ack_irq t =
  t.pending <- false;
  t.since_irq <- 0

let rx_available t = Rqueue.length t.rx

let take_all t =
  ack_irq t;
  let frames = pop_all t.rx in
  (match t.metrics with
  | None -> ()
  | Some m ->
    (* The service batch: how many frames one intake opportunity saw. *)
    let n = List.length frames in
    if n > 0 then Metrics.batch_run m n);
  frames

let take t = pop t.rx

let transmit t frame =
  if push t.tx ~slots:t.tx_slots frame then true
  else begin
    t.s <- { t.s with tx_drops = t.s.tx_drops + 1 };
    Metrics.add_scalar t.tx_drops_sc 1;
    false
  end

let stats t = t.s

let service_into t eng ~node ~wrap =
  List.fold_left
    (fun moved f ->
      if Ldlp_core.Engine.try_inject eng ~node (wrap f) then moved + 1 else moved)
    0 (take_all t)
