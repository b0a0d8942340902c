module Plan = Ldlp_fault.Plan
module Impair = Ldlp_fault.Impair
module Rng = Ldlp_sim.Rng
module Engine = Ldlp_sim.Engine
module Netsim = Ldlp_netsim.Netsim
module Nic = Ldlp_nic.Nic
module Mbuf = Ldlp_buf.Mbuf
module Pool = Ldlp_buf.Pool
module Host = Ldlp_tcpmini.Host
module Pcb = Ldlp_tcpmini.Pcb
module Sockbuf = Ldlp_tcpmini.Sockbuf
module Core = Ldlp_core

type scenario = {
  id : int;
  seed : int;
  plan : Plan.t;
  chunks : int;
  chunk_bytes : int;
  intake_limit : int option;
  crash : (float * float) list;
}

let acceptance_plan =
  Plan.v ~drop:0.05 ~dup:0.02 ~corrupt:0.001 ~reorder:0.1 ~reorder_window:4 ()

let scenarios ~seed ~count =
  let rng = Rng.create ~seed in
  (* Crash episodes come from a separate stream so adding them did not
     reshuffle the fault plans the soak table already pins. *)
  let crng = Rng.create ~seed:(seed lxor 0xdead) in
  let rec go id acc =
    if id >= count then List.rev acc
    else
      let base =
        { id; seed = seed + (id * 7919); plan = Plan.none; chunks = 32;
          chunk_bytes = 64; intake_limit = None; crash = [] }
      in
      let sc =
        if id = 0 then base
        else if id = 1 then { base with plan = acceptance_plan }
        else begin
          (* Draws happen in a fixed order so the matrix is a pure
             function of (seed, count); values are rounded so the
             rendered table stays legible. *)
          let round q v = Float.round (v /. q) *. q in
          let drop = round 1e-3 (Rng.float rng 0.08) in
          let dup = round 1e-3 (Rng.float rng 0.04) in
          let corrupt = round 1e-4 (Rng.float rng 0.002) in
          let reorder = round 1e-3 (Rng.float rng 0.15) in
          let reorder_window = 2 + Rng.int rng 5 in
          let jitter = round 1e-5 (Rng.float rng 2e-4) in
          let down =
            if Rng.bool rng 0.25 then begin
              let start = round 1e-2 (0.2 +. Rng.float rng 0.6) in
              [ (start, start +. round 1e-2 (0.05 +. Rng.float rng 0.1)) ]
            end
            else []
          in
          let intake_limit =
            if Rng.bool rng 0.3 then Some (6 + Rng.int rng 20) else None
          in
          let plan =
            Plan.v ~drop ~dup ~corrupt ~reorder ~reorder_window ~jitter ~down ()
          in
          let crash =
            let round q v = Float.round (v /. q) *. q in
            if Rng.bool crng 0.3 then begin
              let start = round 1e-2 (0.15 +. Rng.float crng 0.5) in
              [ (start, start +. round 1e-2 (0.05 +. Rng.float crng 0.1)) ]
            end
            else begin
              (* Keep the stream in lockstep whether or not this
                 scenario crashes. *)
              ignore (Rng.float crng 1.0);
              ignore (Rng.float crng 1.0);
              []
            end
          in
          { base with plan; intake_limit; crash }
        end
      in
      go (id + 1) (sc :: acc)
  in
  go 0 []

type outcome = {
  completed : bool;
  integrity : bool;
  leak_free : bool;
  retransmits : int;
  shed : int;
  echoed_bytes : int;
  completion : float;
  dropped : int;
  duplicated : int;
  corrupted : int;
  reordered : int;
}

let outcome_ok sc o =
  o.completed && o.integrity && o.leak_free
  && ((not (Plan.is_none sc.plan && sc.crash = [])) || o.retransmits = 0)

type report = {
  scenario : scenario;
  conventional : outcome;
  ldlp : outcome;
  equivalent : bool;
}

let report_ok r =
  outcome_ok r.scenario r.conventional
  && outcome_ok r.scenario r.ldlp
  && r.equivalent

(* ---------- payloads ---------- *)

(* Chunk [i]: index stamp, seeded noise, trailing additive checksum.  Any
   mis-sequenced, duplicated or corrupted delivery breaks the
   whole-stream comparison in an attributable way. *)
let payloads sc =
  if sc.chunk_bytes < 4 then invalid_arg "Soak: chunk_bytes < 4";
  let rng = Rng.create ~seed:(sc.seed lxor 0x5eed) in
  let chunk i =
    let b = Bytes.create sc.chunk_bytes in
    Bytes.set b 0 (Char.chr (i land 0xff));
    Bytes.set b 1 (Char.chr ((i lsr 8) land 0xff));
    let sum = ref 0 in
    for j = 2 to sc.chunk_bytes - 2 do
      let c = Rng.int rng 256 in
      Bytes.set b j (Char.chr c);
      sum := !sum + c
    done;
    Bytes.set b (sc.chunk_bytes - 1) (Char.chr (!sum land 0xff));
    b
  in
  let a = Array.make sc.chunks Bytes.empty in
  for i = 0 to sc.chunks - 1 do
    a.(i) <- chunk i
  done;
  a

(* Flip one random bit somewhere in the frame.  TCP's ones'-complement
   checksum catches any single-bit flip in the segment; flips landing in
   the Ethernet/IP headers exercise the parser-hardening paths
   (mismatched MAC, wrong protocol, bad destination) instead. *)
let corruptor ~seed =
  let rng = Rng.create ~seed in
  fun m ->
    let len = Mbuf.length m in
    if len > 0 then begin
      let i = Rng.int rng len in
      let bit = Rng.int rng 8 in
      let b = Bytes.make 1 (Char.chr (Mbuf.get_byte m i lxor (1 lsl bit))) in
      Mbuf.copy_into m ~pos:i b ~src_off:0 ~len:1
    end;
    m

(* ---------- one echo exchange ---------- *)

let server_port = 7

let client_port = 40007

let client_window = 4

(* Union of two sorted-disjoint interval lists, overlaps coalesced. *)
let merge_intervals a b =
  let rec go = function
    | (s1, e1) :: (s2, e2) :: tl when s2 <= e1 ->
      go ((s1, Float.max e1 e2) :: tl)
    | h :: tl -> h :: go tl
    | [] -> []
  in
  go (List.sort compare (a @ b))

let run_one ?(duplex = false) ~discipline sc =
  ignore (Plan.host_v ~crash:sc.crash ());
  (* A server crash episode kills the link in both directions for its
     duration (a dead host neither sends nor receives); the frames
     sitting in its NIC rings at crash time are volatile state and are
     wiped below.  Socket state survives (stable storage), so TCP
     retransmission must recover the stream after the restart. *)
  let wire_plan =
    if sc.crash = [] then sc.plan
    else
      { sc.plan with Plan.down = merge_intervals sc.plan.Plan.down sc.crash }
  in
  let payload = payloads sc in
  let total_bytes = sc.chunks * sc.chunk_bytes in
  let expected =
    String.concat "" (Array.to_list (Array.map Bytes.to_string payload))
  in
  let net = Netsim.create () in
  let engine = Netsim.engine net in
  let pool = Pool.create () in
  (* One message pool per exchange: hosts draw their reply messages from
     it, the schedulers release into it, and at quiesce its ledger must
     balance exactly like the mbuf pool's. *)
  let mpool = Core.Msg.pool () in
  let ipv4 = Ldlp_packet.Addr.Ipv4.of_string in
  let server_ip = ipv4 "10.0.0.1" and client_ip = ipv4 "10.0.0.2" in
  let mk_host ~ip ~mac =
    Host.create ~pool ~msg_pool:mpool
      ~mac:(Ldlp_packet.Addr.Mac.of_string mac) ~ip ()
  in
  let server_host = mk_host ~ip:server_ip ~mac:"02:00:00:00:00:01" in
  let client_host = mk_host ~ip:client_ip ~mac:"02:00:00:00:00:02" in
  ignore (Host.listen server_host ~port:server_port);
  (* Client application state. *)
  let client_pcb = ref None in
  let sent_idx = ref 0 in
  let recvd = Buffer.create total_bytes in
  let completion = ref None in
  let xmit nic frame = if not (Nic.transmit nic frame) then Mbuf.free pool frame in
  let server_service host ~emit =
    match
      Pcb.lookup (Host.table host) ~local_port:server_port
        ~remote:(client_ip, client_port)
    with
    | Some pcb
      when (pcb.Pcb.state = Pcb.Established || pcb.Pcb.state = Pcb.Close_wait)
           && Sockbuf.length pcb.Pcb.sockbuf > 0
           && Pcb.unacked pcb < 2 * client_window -> (
      let data = Sockbuf.read_all pcb.Pcb.sockbuf in
      match Host.send host pcb data with
      | Some frame -> emit frame
      | None -> ())
    | _ -> ()
  in
  let client_service _host ~emit =
    match !client_pcb with
    | Some pcb when pcb.Pcb.state = Pcb.Established ->
      if Sockbuf.length pcb.Pcb.sockbuf > 0 then begin
        Buffer.add_bytes recvd (Sockbuf.read_all pcb.Pcb.sockbuf);
        if Buffer.length recvd >= total_bytes && !completion = None then
          completion := Some (Engine.now engine)
      end;
      while !sent_idx < sc.chunks && Pcb.unacked pcb < client_window do
        (match Host.send client_host pcb payload.(!sent_idx) with
        | Some frame -> emit frame
        | None -> ());
        incr sent_idx
      done
    | _ -> ()
  in
  (* A node's engine is either the classic receive chain (app-built
     frames transmitted directly) or one full-duplex engine
     ([Host.duplex]): received frames enter the rx side, app-built frames
     are submitted at the tx entry and descend the transmit nodes before
     reaching the NIC. *)
  let mk_node ~name host ~on_service =
    let nic =
      Nic.create ~rx_slots:256 ~tx_slots:256 ~irq:(Nic.Coalesced 4) ()
    in
    let wrap frame =
      Core.Msg.acquire mpool
        ~arrival:(Engine.now engine)
        ~size:(Mbuf.length frame) (Host.wrap host frame)
    in
    let shed m =
      Mbuf.free pool m.Core.Msg.payload.Host.buf;
      Core.Msg.release mpool m
    in
    let eng, emit =
      if duplex then begin
        let eng =
          Host.duplex host ~discipline
            ~wire:(fun frame -> xmit nic frame)
            ?intake_limit:sc.intake_limit ~on_shed:shed ()
        in
        let tx = Core.Engine.duplex_tx_entry eng in
        ( eng,
          fun frame ->
            Core.Engine.inject eng ~node:tx (wrap frame);
            Core.Engine.run eng )
      end
      else
        ( Core.Engine.rx_chain ~discipline ~layers:(Host.layers host)
            ~down:(fun m ->
              xmit nic m.Core.Msg.payload.Host.buf;
              Core.Msg.release mpool m)
            ~on_consume:(fun m -> Core.Msg.release mpool m)
            ?intake_limit:sc.intake_limit ~on_shed:shed (),
          fun frame -> xmit nic frame )
    in
    (* Frame arrival is node 0 of either engine. *)
    let drive nic =
      ignore (Nic.service_into nic eng ~node:0 ~wrap);
      Core.Engine.run eng
    in
    let node =
      Netsim.add_node net ~name ~nic
        ~service:(fun nic ->
          drive nic;
          on_service host ~emit)
        ()
    in
    (* Timer transmissions happen outside an interrupt service; kick the
       node so Netsim pumps them onto the wire. *)
    Host.attach_timers host
      ~now:(fun () -> Engine.now engine)
      ~schedule:(fun d k -> Engine.after engine d k)
      ~tx:(fun frame ->
        if Nic.transmit (Netsim.nic node) frame then Netsim.kick net node
        else Mbuf.free pool frame);
    (nic, eng, node, emit)
  in
  let server_nic, server_eng, server_node, _server_emit =
    mk_node ~name:"server" server_host ~on_service:server_service
  in
  let client_nic, client_eng, client_node, client_emit =
    mk_node ~name:"client" client_host ~on_service:client_service
  in
  let mk_impair ~seed =
    Impair.create
      ~clone:(fun m -> Mbuf.of_bytes pool (Mbuf.to_bytes m))
      ~corrupt:(corruptor ~seed:(seed lxor 0xc0ffee))
      ~free:(fun m -> Mbuf.free pool m)
      ~seed wire_plan
  in
  let imp_cs = mk_impair ~seed:((2 * sc.seed) + 1) in
  let imp_sc = mk_impair ~seed:((2 * sc.seed) + 2) in
  Netsim.connect net client_node server_node ~latency:1e-3 ~impair_ab:imp_cs
    ~impair_ba:imp_sc ();
  (* Crash instants: wipe the server's volatile ring state.  Scheduled
     before the exchange starts, so [Engine.after] delays are absolute
     times. *)
  List.iter
    (fun (down_at, _) ->
      Engine.after engine down_at (fun () ->
          List.iter (Mbuf.free pool) (Nic.take_all server_nic);
          List.iter (Mbuf.free pool) (Nic.wire_take_all server_nic)))
    sc.crash;
  (* Active open, then run to quiescence: every armed timer is conditional
     on unacknowledged state, so the engine drains exactly when recovery
     is complete. *)
  let pcb, syn =
    Host.connect client_host ~dst:(server_ip, server_port)
      ~src_port:client_port
  in
  client_pcb := Some pcb;
  client_emit syn;
  Netsim.kick net client_node;
  Netsim.run net;
  (* Teardown: reclaim anything the fault model or the rings still hold,
     then audit the pool. *)
  let free_emissions imp =
    List.iter
      (fun (e : Mbuf.t Impair.emission) -> Mbuf.free pool e.Impair.frame)
      (Impair.flush imp)
  in
  free_emissions imp_cs;
  free_emissions imp_sc;
  List.iter (Mbuf.free pool) (Nic.take_all server_nic);
  List.iter (Mbuf.free pool) (Nic.take_all client_nic);
  List.iter (Mbuf.free pool) (Nic.wire_take_all server_nic);
  List.iter (Mbuf.free pool) (Nic.wire_take_all client_nic);
  let pstats = Pool.stats pool in
  let mstats = Core.Msg.pool_stats mpool in
  let ics = Impair.stats imp_cs and isc = Impair.stats imp_sc in
  let cc = Host.counters client_host and sc_c = Host.counters server_host in
  {
    completed = !completion <> None;
    integrity = String.equal (Buffer.contents recvd) expected;
    leak_free =
      pstats.Pool.small_in_use = 0
      && pstats.Pool.cluster_in_use = 0
      && mstats.Core.Msg.p_outstanding = 0;
    retransmits = cc.Host.retransmits + sc_c.Host.retransmits;
    shed =
      (Core.Engine.stats client_eng).Core.Engine.shed
      + (Core.Engine.stats server_eng).Core.Engine.shed;
    echoed_bytes = Buffer.length recvd;
    completion =
      (match !completion with Some t -> t | None -> Engine.now engine);
    dropped = ics.Impair.dropped + isc.Impair.dropped;
    duplicated = ics.Impair.duplicated + isc.Impair.duplicated;
    corrupted = ics.Impair.corrupted + isc.Impair.corrupted;
    reordered = ics.Impair.reordered + isc.Impair.reordered;
  }

let run_scenario ?(duplex = false) sc =
  let conventional = run_one ~duplex ~discipline:Core.Engine.Conventional sc in
  let ldlp =
    run_one ~duplex ~discipline:(Core.Engine.Ldlp Core.Batch.paper_default) sc
  in
  let equivalent =
    conventional.completed && ldlp.completed && conventional.integrity
    && ldlp.integrity
    && conventional.echoed_bytes = ldlp.echoed_bytes
  in
  { scenario = sc; conventional; ldlp; equivalent }

let run_all ?domains ?(duplex = false) scs =
  Ldlp_par.Pool.map ?domains (run_scenario ~duplex) scs

(* ---------- rendering ---------- *)

let b2s ok = if ok then "ok" else "FAIL"

let render reports =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "chaos soak: tcpmini echo under fault injection\n";
  add "%3s  %-44s %6s %6s %5s %5s %8s %6s\n" "id" "plan" "conv" "ldlp"
    "rexmt" "shed" "bytes" "equiv";
  List.iter
    (fun r ->
      let plan_s =
        Plan.describe r.scenario.plan
        ^
        if r.scenario.crash = [] then ""
        else
          " " ^ Plan.describe_host (Plan.host_v ~crash:r.scenario.crash ())
      in
      add "%3d  %-44s %6s %6s %5d %5d %8d %6s\n" r.scenario.id plan_s
        (b2s (outcome_ok r.scenario r.conventional))
        (b2s (outcome_ok r.scenario r.ldlp))
        r.ldlp.retransmits r.ldlp.shed r.ldlp.echoed_bytes
        (b2s r.equivalent))
    reports;
  let total = List.length reports in
  let passed = List.length (List.filter report_ok reports) in
  add "%d/%d scenarios ok\n" passed total;
  Buffer.contents buf

(* ---------- bench ladder ---------- *)

type ladder_row = {
  loss : float;
  goodput : float;
  ladder_retransmits : int;
  ladder_completion : float;
  ok : bool;
}

let loss_ladder ~seed ~rates =
  List.map
    (fun loss ->
      let plan = if loss <= 0.0 then Plan.none else Plan.v ~drop:loss () in
      let sc =
        { id = 0; seed; plan; chunks = 32; chunk_bytes = 64;
          intake_limit = None; crash = [] }
      in
      let o = run_one ~discipline:(Core.Engine.Ldlp Core.Batch.paper_default) sc in
      {
        loss;
        goodput =
          (if o.completion > 0.0 then
             float_of_int o.echoed_bytes /. o.completion
           else 0.0);
        ladder_retransmits = o.retransmits;
        ladder_completion = o.completion;
        ok = outcome_ok sc o;
      })
    rates
