(* tcp-rr: 64 B requests and 64 B responses over 4,096 persistent
   connections between two tcpmini hosts wired back to back, each host
   under one full-duplex LDLP engine, on one thread in real time.

   The paper's Section 2 receive-and-ACK path on the cursor-based, pooled
   stack.  PCB lookups are read-only here (connections are set up
   beforehand), in contrast with sig-open's call-table writes, and no
   signalling code runs. *)

module Engine = Ldlp_core.Engine
module Msg = Ldlp_core.Msg
module Layer = Ldlp_core.Layer
module Mbuf = Ldlp_buf.Mbuf
module Addr = Ldlp_packet.Addr
open Ldlp_tcpmini

let light_rate = 10_000.

(* About 40% of this stack's saturation rate at the reference speed
   (README.md).  Fixed, so that later changes are measured at the same
   offered load. *)
let heavy_rate = 40_000.

let in_flight = 256

let server_port = 80

let base_port = 10_000

let discipline = Engine.Ldlp Ldlp_core.Batch.paper_default

let srv_layers = [ "ether"; "ip"; "tcp" ]

let span_names =
  Array.of_list
    ([ "gen"; "engine"; "tcp.cli"; "tcp.app" ]
    @ List.concat_map
        (fun l -> [ "tcp.srv." ^ l; "tcp.srv." ^ l ^ "-tx" ])
        srv_layers)

type probe = { tr : Tracer.t; gen : int; engine : int; app : int }

(* The two hosts, their connections, and the bookkeeping of the sub-run
   in progress. *)
type net = {
  pool : Ldlp_buf.Pool.t;
  srv : Host.t;
  cli : Host.t;
  srv_mp : Host.item Msg.pool;
  cli_mp : Host.item Msg.pool;
  mutable cli_pcbs : Pcb.t array;
  srv_pcbs : Pcb.t option array;
  mutable sched : Gen.rpcs;
  head : int array;  (** Oldest outstanding request per connection, or -1. *)
  tail : int array;
  mutable next : int array;  (** Next outstanding request on its connection. *)
  mutable completed : int;
  mutable mismatched : int;
  mutable refused : int;
  mutable clock : Spec.Vclock.t;  (** The open loop's. *)
  mutable lat : Lat.t option;
}

type pair = { cli_eng : Host.item Engine.t; srv_eng : Host.item Engine.t }

let port_at m i = (Mbuf.get_byte m i lsl 8) lor Mbuf.get_byte m (i + 1)

(* The application sits above the tcp layer's receive handler: after the
   segment is processed it reads the socket buffer.  The port is read from
   the TCP header first, since the handler frees the segment. *)
let with_app ?probe ~port_offset (l : Host.item Layer.t) app =
  let handle msg =
    let port = port_at msg.Msg.payload.Host.buf port_offset in
    let acts = l.Layer.handle msg in
    match probe with
    | None -> app port acts
    | Some p ->
      Tracer.enter p.tr p.app ~op:msg.Msg.id;
      let acts = app port acts in
      Tracer.exit p.tr;
      acts
  in
  { l with Layer.handle }

let conn_of net port =
  let c = port - base_port in
  if c >= 0 && c < Array.length net.srv_pcbs then c else -1

(* Server: answer each complete request with a response echoing it. *)
let serve net port acts =
  match conn_of net port with
  | -1 -> acts
  | c -> (
    match net.srv_pcbs.(c) with
    | None -> acts
    | Some pcb ->
      let rec loop acts =
        if Sockbuf.length pcb.Pcb.sockbuf < Gen.rpc_bytes then acts
        else
          let req = Sockbuf.read pcb.Pcb.sockbuf Gen.rpc_bytes in
          match Host.send net.srv pcb req with
          | Some frame ->
            loop
              (Layer.Send_down
                 (Msg.acquire net.srv_mp ~arrival:0. ~size:(Mbuf.length frame)
                    (Host.wrap net.srv frame))
              :: acts)
          | None ->
            net.refused <- net.refused + 1;
            loop acts
      in
      loop acts)

let matches a b ~off =
  let rec go i = i = Gen.rpc_bytes || (Bytes.get a i = Bytes.get b (off + i) && go (i + 1)) in
  go 0

(* Client: match each response to the oldest outstanding request on its
   connection and time it from the request's due time. *)
let receive net port acts =
  (match conn_of net port with
  | -1 -> ()
  | c ->
    let sb = net.cli_pcbs.(c).Pcb.sockbuf in
    while Sockbuf.length sb >= Gen.rpc_bytes do
      let resp = Sockbuf.read sb Gen.rpc_bytes in
      let rid = net.head.(c) in
      if rid < 0 || not (matches resp net.sched.Gen.payload ~off:(rid * Gen.rpc_bytes))
      then net.mismatched <- net.mismatched + 1
      else begin
        net.head.(c) <- net.next.(rid);
        net.completed <- net.completed + 1;
        match net.lat with
        | Some lat ->
          let due = net.sched.Gen.due.(rid) in
          Lat.add lat (Spec.Vclock.read net.clock - due)
        | None -> ()
      end
    done);
  acts

let engines ?probe net =
  let traced ~rx ?tx l =
    match probe with None -> l | Some p -> Tracer.layer p.tr ~rx ?tx l
  in
  let srv_layers =
    List.map2
      (fun name l ->
        let l = traced ~rx:("tcp.srv." ^ name) ~tx:("tcp.srv." ^ name ^ "-tx") l in
        if name = "tcp" then with_app ?probe ~port_offset:0 l (serve net) else l)
      srv_layers (Host.layers net.srv)
  in
  let cli_layers =
    List.map
      (fun l ->
        let l = traced ~rx:"tcp.cli" ~tx:"tcp.cli" l in
        if l.Layer.name = "tcp" then with_app ?probe ~port_offset:2 l (receive net)
        else l)
      (Host.layers net.cli)
  in
  let to_srv = ref (fun _ -> ()) and to_cli = ref (fun _ -> ()) in
  let duplex layers mp forward =
    Engine.duplex ~discipline ~layers
      ~wire:(fun m ->
        let frame = m.Msg.payload.Host.buf in
        Msg.release mp m;
        !forward frame)
      ~on_consume:(fun m -> Msg.release mp m)
      ()
  in
  let cli_eng = duplex cli_layers net.cli_mp to_srv in
  let srv_eng = duplex srv_layers net.srv_mp to_cli in
  let deliver eng host mp frame =
    ignore
      (Engine.try_inject eng ~node:(Engine.duplex_rx_entry eng)
         (Msg.acquire mp ~arrival:0. ~size:(Mbuf.length frame) (Host.wrap host frame)))
  in
  to_srv := deliver srv_eng net.srv net.srv_mp;
  to_cli := deliver cli_eng net.cli net.cli_mp;
  { cli_eng; srv_eng }

let step ?probe e =
  match probe with
  | None ->
    let a = Engine.step e.cli_eng in
    Engine.step e.srv_eng || a
  | Some p ->
    Tracer.enter p.tr p.engine ~op:0;
    let a = Engine.step e.cli_eng in
    let b = Engine.step e.srv_eng in
    Tracer.exit p.tr;
    a || b

let drain e = while step e do () done

let submit net e frame =
  ignore
    (Engine.try_inject e.cli_eng ~node:(Engine.duplex_tx_entry e.cli_eng)
       (Msg.acquire net.cli_mp ~arrival:0. ~size:(Mbuf.length frame) (Host.wrap net.cli frame)))

let send_request ?probe net e i =
  (match probe with Some p -> Tracer.enter p.tr p.gen ~op:i | None -> ());
  let r = net.sched in
  let c = r.Gen.conn.(i) in
  net.next.(i) <- -1;
  if net.head.(c) < 0 then net.head.(c) <- i else net.next.(net.tail.(c)) <- i;
  net.tail.(c) <- i;
  (match
     Host.send net.cli net.cli_pcbs.(c)
       (Bytes.sub r.Gen.payload (i * Gen.rpc_bytes) Gen.rpc_bytes)
   with
  | Some frame -> submit net e frame
  | None -> net.refused <- net.refused + 1);
  match probe with Some p -> Tracer.exit p.tr | None -> ()

let create ~conns =
  let pool = Ldlp_buf.Pool.create () in
  let srv_mac = Addr.Mac.of_string "02:00:00:00:00:01"
  and cli_mac = Addr.Mac.of_string "02:00:00:00:00:02" in
  let srv_mp = Msg.pool () and cli_mp = Msg.pool () in
  let srv =
    Host.create ~pool ~msg_pool:srv_mp ~mac:srv_mac
      ~ip:(Addr.Ipv4.of_string "192.0.2.1") ~gateway_mac:cli_mac ()
  and cli =
    Host.create ~pool ~msg_pool:cli_mp ~mac:cli_mac
      ~ip:(Addr.Ipv4.of_string "192.0.2.10") ~gateway_mac:srv_mac ()
  in
  ignore (Host.listen srv ~port:server_port);
  let empty = { Gen.due = [||]; conn = [||]; payload = Bytes.empty } in
  {
    pool;
    srv;
    cli;
    srv_mp;
    cli_mp;
    cli_pcbs = [||];
    srv_pcbs = Array.make conns None;
    sched = empty;
    head = Array.make conns (-1);
    tail = Array.make conns (-1);
    next = [||];
    completed = 0;
    mismatched = 0;
    refused = 0;
    clock = Spec.Vclock.create ~factor:1.;
    lat = None;
  }

(* Three-way handshakes for every connection, through both stacks. *)
let connect out net e =
  let conns = Array.length net.srv_pcbs in
  net.cli_pcbs <-
    Array.init conns (fun i ->
        let pcb, syn =
          Host.connect net.cli ~dst:(Host.ip net.srv, server_port) ~src_port:(base_port + i)
        in
        submit net e syn;
        pcb);
  drain e;
  for i = 0 to conns - 1 do
    match
      Pcb.lookup (Host.table net.srv) ~local_port:server_port
        ~remote:(Host.ip net.cli, base_port + i)
    with
    | Some pcb when pcb.Pcb.state = Pcb.Established && pcb.Pcb.remote <> None ->
      net.srv_pcbs.(i) <- Some pcb
    | _ -> Spec.check out (Printf.sprintf "tcp-rr: connection %d established" i) false
  done;
  Spec.check out "tcp-rr: client side established"
    (Array.for_all (fun p -> p.Pcb.state = Pcb.Established) net.cli_pcbs)

let begin_subrun net (r : Gen.rpcs) ~lat =
  net.sched <- r;
  if Array.length net.next < Array.length r.Gen.due then
    net.next <- Array.make (Array.length r.Gen.due) (-1);
  Array.fill net.head 0 (Array.length net.head) (-1);
  net.completed <- 0;
  net.mismatched <- 0;
  net.refused <- 0;
  net.lat <- lat

let finish out net e =
  drain e;
  let n = Array.length net.sched.Gen.due in
  let check what cond = Spec.check out ("tcp-rr: " ^ what) cond in
  let hc = Host.counters net.srv and cc = Host.counters net.cli in
  let ps = Ldlp_buf.Pool.stats net.pool in
  let quiet (s : Engine.stats) = s.Engine.misrouted = 0 && s.Engine.shed = 0 in
  check "every request answered" (net.completed = n);
  check "every response matches its request" (net.mismatched = 0);
  check "no send refused" (net.refused = 0);
  check "no frame dropped below tcp"
    (List.for_all
       (fun (c : Host.counters) -> c.Host.non_ip = 0 && c.Host.non_tcp = 0 && c.Host.bad_ip = 0)
       [ hc; cc ]);
  check "no misrouted or shed messages"
    (quiet (Engine.stats e.cli_eng) && quiet (Engine.stats e.srv_eng));
  check "message pools leak-free"
    ((Msg.pool_stats net.srv_mp).Msg.p_outstanding = 0
    && (Msg.pool_stats net.cli_mp).Msg.p_outstanding = 0);
  check "mbuf pool leak-free"
    (ps.Ldlp_buf.Pool.small_in_use = 0 && ps.Ldlp_buf.Pool.cluster_in_use = 0);
  out.Spec.attempted <- out.Spec.attempted + n;
  out.Spec.failed <- out.Spec.failed + (n - net.completed) + net.mismatched

(* Saturation: [in_flight] RPCs outstanding, due times ignored.  Returns
   the RPCs completed. *)
let closed ?probe out net e (r : Gen.rpcs) =
  begin_subrun net r ~lat:None;
  let n = Array.length r.Gen.due in
  let i = ref 0 and go = ref true in
  while !go do
    while !i < n && !i - net.completed < in_flight do
      send_request ?probe net e !i;
      incr i
    done;
    if not (step ?probe e) then go := false
  done;
  finish out net e;
  net.completed

type sizes = {
  conns : int;
  sat_rpcs : int;
  sat_per_cycle : int;
  window_ns : int;  (** Requests per open-loop sub-run span this long. *)
}

(* A cycle is a burst of saturation sub-runs, then one open-loop sub-run at
   each rate. *)
let sizes (mode : Spec.mode) =
  if mode.Spec.quick then
    { conns = 64; sat_rpcs = 300; sat_per_cycle = 2; window_ns = 20_000_000 }
  else { conns = 4096; sat_rpcs = 3_000; sat_per_cycle = 10; window_ns = 1_000_000_000 }

(* Open loop: send each request when due on the busy-time clock
   (Spec.Vclock); [lag], if given, records how late.  Returns the sub-run's
   latencies. *)
let open_loop ?lag out net e ~factor (r : Gen.rpcs) =
  let n = Array.length r.Gen.due in
  let lat = Lat.create n in
  begin_subrun net r ~lat:(Some lat);
  let i = ref 0 and busy = ref false and vt = Spec.Vclock.create ~factor in
  net.clock <- vt;
  while !i < n || !busy do
    if not !busy then Spec.Vclock.idle_until vt r.Gen.due.(!i);
    let now = Spec.Vclock.start vt in
    while !i < n && r.Gen.due.(!i) <= now do
      Option.iter (fun lag -> Lat.add lag (now - r.Gen.due.(!i))) lag;
      send_request net e !i;
      incr i
    done;
    busy := step e;
    Spec.Vclock.stop vt
  done;
  finish out net e;
  lat

type env = {
  net : net;
  e : pair;
  sat : Gen.rpcs;
  light : Gen.rpcs;
  heavy : Gen.rpcs;
}

let setup (mode : Spec.mode) z out =
  let rpcs phase rate n =
    Gen.rpcs ~seed:mode.Spec.seed ~phase ~rate ~n ~conns:z.conns
  in
  let per_window rate = int_of_float (rate *. float_of_int z.window_ns *. 1e-9) in
  let net = create ~conns:z.conns in
  let e = engines net in
  connect out net e;
  let env =
    {
      net;
      e;
      sat = rpcs "sat" heavy_rate z.sat_rpcs;
      light = rpcs "light" light_rate (per_window light_rate);
      heavy = rpcs "heavy" heavy_rate (per_window heavy_rate);
    }
  in
  (* Warm-up, discarded: one saturation sub-run. *)
  ignore (closed out net e env.sat);
  env

let run_untraced (mode : Spec.mode) z out =
  Spec.real_stack_run mode out
    ~setup:(fun () -> setup mode z out)
    ~sat_per_cycle:z.sat_per_cycle
    ~closed:(fun env -> closed out env.net env.e env.sat)
    ~open_loop:(fun env ~factor phase ->
      let r = if phase = "light" then env.light else env.heavy in
      Spec.summarise (open_loop out env.net env.e ~factor r))

let pcb_totals net =
  let a = Pcb.stats (Host.table net.srv) and b = Pcb.stats (Host.table net.cli) in
  ( a.Pcb.lookups + b.Pcb.lookups,
    a.Pcb.cache_hits + b.Pcb.cache_hits,
    a.Pcb.table_hits + b.Pcb.table_hits )

let run_traced (mode : Spec.mode) z out =
  let third = mode.Spec.seconds /. 3. in
  let cal = Calib.create ~quick:mode.Spec.quick in
  let env = setup mode z out in
  let sub_runs = z.sat_per_cycle in
  let net = env.net in
  let tr = Tracer.create ~names:span_names ~capacity:50_000 in
  let id = Tracer.id tr in
  (* Untraced saturation: throughput, GC and the protocol counters. *)
  Tcp_input.reset_stats ();
  let l0, c0, t0 = pcb_totals net in
  let a0 = out.Spec.attempted and g0 = Spec.gc_now () in
  let untraced, _ =
    Spec.saturation cal ~seconds:third ~sub_runs (fun () -> closed out net env.e env.sat)
  in
  let rpcs = out.Spec.attempted - a0 in
  Spec.set_gc out ~ops:rpcs g0 (Spec.gc_now ());
  let ts = Tcp_input.stats () in
  let l1, c1, t1 = pcb_totals net in
  let f = float_of_int in
  Spec.set out "tcp.fastpath_ratio"
    (Spec.ratio (f ts.Tcp_input.fastpath_hits)
       (f (ts.Tcp_input.fastpath_hits + ts.Tcp_input.slowpath)));
  Spec.set out "tcp.acks_per_rpc" (Spec.ratio (f ts.Tcp_input.acks_sent) (f rpcs));
  Spec.set out "pcb.cache_hit_ratio" (Spec.ratio (f (c1 - c0)) (f (l1 - l0)));
  Spec.set out "pcb.table_hit_ratio" (Spec.ratio (f (t1 - t0)) (f (l1 - l0)));
  (* Traced saturation, on engines whose layers are wrapped in spans. *)
  let probe = { tr; gen = id "gen"; engine = id "engine"; app = id "tcp.app" } in
  let e = engines ~probe net in
  let a0 = out.Spec.attempted in
  let traced, factor =
    Spec.saturation cal ~seconds:third ~sub_runs (fun () -> closed ~probe out net e env.sat)
  in
  let rpcs = f (out.Spec.attempted - a0) in
  (* Self times in ns of reference time. *)
  let total = f (Tracer.total_self_ns tr) /. factor in
  let self name = f (Tracer.self_ns tr (id name)) /. factor in
  Spec.set out "trace.overhead_pct" (100. *. ((untraced /. traced) -. 1.));
  Spec.set out "gen.ns_per_op" (self "gen" /. rpcs);
  Spec.set out "system.ns_per_op" ((total -. self "gen") /. rpcs);
  Spec.set out "engine.self_pct" (Spec.pct (self "engine") total);
  Spec.set out "tcp.cli.self_pct" (Spec.pct (self "tcp.cli") total);
  Spec.set out "tcp.app.self_pct" (Spec.pct (self "tcp.app") total);
  List.iter
    (fun l ->
      let name = "tcp.srv." ^ l in
      Spec.set out (name ^ ".self_pct") (Spec.pct (self name) total);
      Spec.set out (name ^ ".words_per_msg")
        (Spec.ratio (Tracer.self_words tr (id name)) (f (Tracer.count tr (id name)))))
    (List.concat_map (fun l -> [ l; l ^ "-tx" ]) srv_layers);
  (* Batching and reloads at the heavy rate, untraced, fresh counters. *)
  let e = engines net in
  let lag = Lat.create (Array.length env.heavy.Gen.due) in
  ignore (Calib.scaled cal (fun ~factor -> open_loop ~lag out net e ~factor env.heavy));
  let es = [ Engine.stats e.cli_eng; Engine.stats e.srv_eng ] in
  let sum g = f (List.fold_left (fun a s -> a + g s) 0 es) in
  let runs (s : Engine.stats) = List.fold_left (fun a (_, r) -> a + r) 0 s.Engine.per_node_runs in
  Spec.set out "engine.mean_batch"
    (Spec.ratio (sum (fun s -> s.Engine.total_batched)) (sum (fun s -> s.Engine.batches)));
  Spec.set out "engine.reloads_per_msg"
    (Spec.ratio (sum runs) (sum (fun s -> s.Engine.injected)));
  let ps = Ldlp_buf.Pool.stats net.pool in
  Spec.set out "buf.pool_outstanding_end"
    (f
       (ps.Ldlp_buf.Pool.small_in_use + ps.Ldlp_buf.Pool.cluster_in_use
       + (Msg.pool_stats net.srv_mp).Msg.p_outstanding
       + (Msg.pool_stats net.cli_mp).Msg.p_outstanding));
  Spec.info "tcp-rr trace: %.0f RPC/s untraced, %.0f traced; heavy-rate generator lag p99 %.1f us"
    untraced traced
    (Spec.us_of_ns (Lat.percentile (Lat.sorted lag) ~permille:990));
  Array.iteri
    (fun i name ->
      let n = f (Tracer.count tr i) in
      Spec.info "  %-16s %8.1f ns self, %6.1f words self per span, %d spans" name
        (Spec.ratio (f (Tracer.self_ns tr i)) n)
        (Spec.ratio (Tracer.self_words tr i) n)
        (Tracer.count tr i))
    span_names;
  Spec.absent out [ "sig."; "memsys."; "par."; "model."; "shard."; "mesh."; "fault." ];
  tr

let run (mode : Spec.mode) out =
  let z = sizes mode in
  if mode.Spec.trace then Some (run_traced mode z out)
  else (run_untraced mode z out; None)
