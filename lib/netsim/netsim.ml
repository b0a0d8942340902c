module Nic = Ldlp_nic.Nic
module Engine = Ldlp_sim.Engine
module Impair = Ldlp_fault.Impair

type 'a link = { peer : 'a node; latency : float; impair : 'a Impair.t option }

and 'a node = {
  name : string;
  nic : 'a Nic.t;
  service : 'a Nic.t -> unit;
  mutable link : 'a link option;
  mutable service_scheduled : bool;
}

type 'a t = { engine : Engine.t }

(* A raised interrupt is serviced this many seconds later; frames below
   the coalescing threshold wait for the holdoff timer. *)
let irq_latency = 5e-6

let holdoff = 1e-4

let create () = { engine = Engine.create () }

let engine t = t.engine

let add_node _ ~name ?(nic = Nic.create ()) ~service () =
  { name; nic; service; link = None; service_scheduled = false }

let nic n = n.nic

let connect _t a b ~latency ?impair_ab ?impair_ba () =
  if latency < 0.0 then invalid_arg "Netsim.connect: negative latency";
  if a.link <> None then invalid_arg ("Netsim.connect: " ^ a.name ^ " already linked");
  if b.link <> None then invalid_arg ("Netsim.connect: " ^ b.name ^ " already linked");
  a.link <- Some { peer = b; latency; impair = impair_ab };
  b.link <- Some { peer = a; latency; impair = impair_ba }

(* Propagate a node's transmit ring over its link, then run any interrupt
   service this triggers at the receiving end. *)
let rec pump t node =
  let frames = Nic.wire_take_all node.nic in
  match (frames, node.link) with
  | [], _ -> ()
  | frames, None ->
    (* Unconnected transmissions vanish into the void (counted by the
       NIC's tx_frames already). *)
    ignore frames
  | frames, Some { peer; latency; impair } ->
    (* Deliver one emission after the link latency plus its jitter; a full
       receive ring hands the frame back to the impairment engine so mbuf
       accounting stays leak-free. *)
    let deliver frame extra =
      Engine.after t.engine (latency +. extra) (fun () ->
          let accepted = Nic.deliver peer.nic frame in
          (if not accepted then
             match impair with
             | Some imp -> Impair.drop_frame imp frame
             | None -> ());
          maybe_schedule t peer)
    in
    (* Reordered frames held inside the impairment engine must not be
       stranded when traffic stops: keep one flush event armed at the
       earliest hold deadline.  Redundant events (one per pump) release
       nothing and terminate. *)
    let rec arm_flush imp =
      match Impair.next_deadline imp with
      | None -> ()
      | Some deadline ->
        Engine.at t.engine deadline (fun () ->
            List.iter
              (fun (e : _ Impair.emission) -> deliver e.Impair.frame e.Impair.delay)
              (Impair.release_due imp ~now:(Engine.now t.engine));
            arm_flush imp)
    in
    List.iter
      (fun frame ->
        match impair with
        | None -> deliver frame 0.0
        | Some imp ->
          List.iter
            (fun (e : _ Impair.emission) -> deliver e.Impair.frame e.Impair.delay)
            (Impair.send imp ~now:(Engine.now t.engine) frame);
          arm_flush imp)
      frames

and maybe_schedule t node =
  let run_after delay =
    node.service_scheduled <- true;
    Engine.after t.engine delay (fun () ->
        node.service_scheduled <- false;
        node.service node.nic;
        pump t node;
        (* The service may have left frames unserviced (coalescing) or new
           interrupts may have been raised meanwhile. *)
        maybe_schedule t node)
  in
  if not node.service_scheduled then
    if Nic.irq_pending node.nic then run_after irq_latency
    else if Nic.rx_available node.nic > 0 then
      (* Below the coalescing threshold: the holdoff timer picks it up. *)
      run_after holdoff

let pump = pump

let inject t node ?at frame =
  let deliver () =
    ignore (Nic.deliver node.nic frame);
    maybe_schedule t node
  in
  match at with
  | None ->
    (* Schedule rather than act immediately so injection order and
       engine-event order stay consistent. *)
    Engine.after t.engine 0.0 deliver
  | Some time -> Engine.at t.engine time deliver

let kick t node =
  Engine.after t.engine 0.0 (fun () ->
      node.service node.nic;
      pump t node;
      maybe_schedule t node)

let run ?until t = Engine.run ?until t.engine
