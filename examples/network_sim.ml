(* Everything together: a simulated network carrying the full signalling
   stack (Q.93B call control over assured SSCOP) between two endpoints,
   across a LOSSY link, with every retransmission driven by virtual-time
   timers.

     dune exec examples/network_sim.exe [-- <calls> <loss>]

   Each endpoint is a Netsim node: its NIC receive ring feeds the UNI
   machine, its transmissions go back out through the NIC, and a timer
   pump keeps the machine's deadlines registered with the event engine.
   Despite the link dropping a configurable fraction of frames, every call
   must eventually connect and release — the SSCOP POLL/STAT recovery and
   the Q.93B T303/T308 supervision doing their jobs. *)

open Ldlp_sigproto
module Netsim = Ldlp_netsim.Netsim
module Nic = Ldlp_nic.Nic

let calls = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 50

let loss = if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.2

type endpoint = {
  uni : Uni.t;
  mutable node : bytes Netsim.node option;
  label : string;
  mutable connected : int;
  mutable released : int;
  mutable offered : int;
  mutable failed : int;
  mutable link_ups : int;
}

let sscop_config =
  (* Faster polls than the defaults so go-back-N recovery over a very
     lossy link stays well inside Q.93B's T303 supervision. *)
  {
    Sscop_conn.poll_interval = 0.02;
    response_timeout = 0.2;
    max_retransmissions = 10;
  }

let make_endpoint label =
  {
    uni = Uni.create ~sscop:sscop_config ();
    node = None;
    label;
    connected = 0;
    released = 0;
    offered = 0;
    failed = 0;
    link_ups = 0;
  }

let () =
  let net = Netsim.create () in
  let engine = Netsim.engine net in
  let a = make_endpoint "caller" and b = make_endpoint "callee" in

  (* Sending, event handling and the timer pump, shared by both ends. *)
  let rec flush ep (o : Uni.outcome) =
    let node = Option.get ep.node in
    List.iter (fun f -> ignore (Nic.transmit (Netsim.nic node) f)) o.Uni.to_wire;
    if o.Uni.to_wire <> [] then Netsim.pump net node;
    List.iter
      (fun ev ->
        match ev with
        | Uni.Link_up -> ep.link_ups <- ep.link_ups + 1
        | Uni.Link_down reason ->
          Printf.printf "%8.3f ms  %s: LINK DOWN (%s)\n"
            (Ldlp_sim.Engine.now engine *. 1e3)
            ep.label reason
        | Uni.Call_offered (call_ref, _) ->
          ep.offered <- ep.offered + 1;
          (* Answer immediately. *)
          flush ep
            (Result.get_ok
               (Uni.accept ep.uni ~now:(Ldlp_sim.Engine.now engine) ~call_ref))
        | Uni.Call_connected call_ref ->
          ep.connected <- ep.connected + 1;
          (* The caller holds each call for 50 ms once it is up. *)
          if ep.label = "caller" then begin
            let now = Ldlp_sim.Engine.now engine in
            Ldlp_sim.Engine.at engine (now +. 0.05) (fun () ->
                match
                  Uni.hangup ep.uni ~now:(Ldlp_sim.Engine.now engine) ~call_ref
                with
                | Ok o -> flush ep o
                | Error `No_call -> ())
          end
        | Uni.Call_released _ -> ep.released <- ep.released + 1
        | Uni.Call_failed (call_ref, reason) ->
          ep.failed <- ep.failed + 1;
          Printf.printf "%8.3f ms  %s: call %d failed (%s)\n"
            (Ldlp_sim.Engine.now engine *. 1e3)
            ep.label call_ref reason)
      o.Uni.events;
    arm_timer ep
  and arm_timer ep =
    match Uni.next_deadline ep.uni with
    | None -> ()
    | Some d ->
      let now = Ldlp_sim.Engine.now engine in
      Ldlp_sim.Engine.at engine (Float.max d now) (fun () ->
          let now = Ldlp_sim.Engine.now engine in
          match Uni.next_deadline ep.uni with
          | Some d' when d' <= now -> flush ep (Uni.tick ep.uni ~now)
          | _ -> arm_timer_if_due ep)
  and arm_timer_if_due ep =
    (* A newer deadline may exist; re-arm for it. *)
    match Uni.next_deadline ep.uni with None -> () | Some _ -> arm_timer ep
  in

  let service ep nic =
    let frames = Nic.take_all nic in
    List.iter
      (fun f -> flush ep (Uni.on_wire ep.uni ~now:(Ldlp_sim.Engine.now engine) f))
      frames
  in
  a.node <-
    Some
      (Netsim.add_node net ~name:"caller"
         ~nic:(Nic.create ~rx_slots:256 ~tx_slots:256 ())
         ~service:(service a) ());
  b.node <-
    Some
      (Netsim.add_node net ~name:"callee"
         ~nic:(Nic.create ~rx_slots:256 ~tx_slots:256 ())
         ~service:(service b) ());
  (* One drop engine serves both directions: a single seeded stream
     decides every frame's fate in wire order. *)
  let lossy = Ldlp_fault.(Impair.create ~seed:42 (Plan.v ~drop:loss ())) in
  Netsim.connect net (Option.get a.node) (Option.get b.node) ~latency:0.002
    ~impair_ab:lossy ~impair_ba:lossy ();

  (* Bring the SAAL link up, then place calls on a schedule: setup at T,
     hangup at T + 80 ms. *)
  flush a (Uni.link_up a.uni ~now:0.0);
  Netsim.kick net (Option.get a.node);
  for i = 1 to calls do
    let t_setup = 0.05 +. (float_of_int i *. 0.02) in
    Ldlp_sim.Engine.at engine t_setup (fun () ->
        match
          Uni.originate a.uni ~now:t_setup ~call_ref:i [ Ie.called_party "b" ]
        with
        | Ok o -> flush a o
        | Error `Link_down ->
          Printf.printf "%8.3f ms  caller: link down, call %d not placed\n"
            (t_setup *. 1e3) i
        | Error `Busy_ref -> assert false)
  done;
  Netsim.run ~until:60.0 net;

  let frames ep = (Nic.stats (Netsim.nic (Option.get ep.node))).Nic.rx_frames in
  Printf.printf
    "\n%d calls over a %.0f%%-lossy 2 ms link (simulated time %.2f s):\n"
    calls (loss *. 100.0)
    (Ldlp_sim.Engine.now engine);
  Printf.printf
    "  caller: %3d connected, %3d released, %3d failed   (%d frames rx)\n"
    a.connected a.released a.failed (frames a);
  Printf.printf
    "  callee: %3d offered,   %3d connected, %3d released (%d frames rx)\n"
    b.offered b.connected b.released (frames b);
  Printf.printf
    "\nEvery loss was repaired by SSCOP POLL/STAT retransmission in virtual\n\
     time; Q.93B's T303/T308 supervision never had to fire unless the link\n\
     itself gave out.  This is the full small-message stack of the paper's\n\
     motivating workload, end to end.\n";
  assert (a.connected = calls && a.failed = 0);
  assert (a.released = calls);
  assert (b.offered = calls)
