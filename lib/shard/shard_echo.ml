module Mbuf = Ldlp_buf.Mbuf
module Pool = Ldlp_buf.Pool
module Host = Ldlp_tcpmini.Host
module Pcb = Ldlp_tcpmini.Pcb
module Sockbuf = Ldlp_tcpmini.Sockbuf
module Metrics = Ldlp_obs.Metrics
module Core = Ldlp_core

type config = {
  conns : int;
  chunks : int;
  chunk_bytes : int;
  seed : int;
  with_metrics : bool;
}

let config ?(conns = 4) ?(chunks = 8) ?(chunk_bytes = 64) ?(seed = 1996)
    ?(with_metrics = false) () =
  if conns < 1 then invalid_arg "Shard_echo.config: conns < 1";
  if chunk_bytes < 4 then invalid_arg "Shard_echo.config: chunk_bytes < 4";
  { conns; chunks; chunk_bytes; seed; with_metrics }

type conn_report = {
  cr_conn : int;
  cr_completed : bool;
  cr_integrity : bool;
  cr_echoed_bytes : int;
  cr_completion_round : int;
  cr_retransmits : int;
  cr_client_frames : int;
  cr_server_frames : int;
  cr_leak_free : bool;
}

type report = {
  e_conns : conn_report array;
  e_stats : Shard.run_stats;
  e_metrics : Metrics.t option;
}

let server_port = 7

let client_port = 40007

let client_window = 4

(* One virtual millisecond per BSP round: the clock is a pure function of
   the round counter, so delayed-ACK and retransmission deadlines land on
   the same round no matter how the endpoints are placed. *)
let round_dt = 1e-3

(* Chunk [i]: index stamp, seeded noise, trailing additive checksum —
   same attributable-integrity shape the chaos soak uses. *)
let payloads cfg conn =
  let st = ref ((cfg.seed + (conn * 7919)) land 0x3FFFFFFF) in
  let rand () =
    st := ((!st * 1664525) + 1013904223) land 0x3FFFFFFF;
    !st
  in
  Array.init cfg.chunks (fun i ->
      let b = Bytes.create cfg.chunk_bytes in
      Bytes.set b 0 (Char.chr (i land 0xff));
      Bytes.set b 1 (Char.chr ((i lsr 8) land 0xff));
      let sum = ref 0 in
      for j = 2 to cfg.chunk_bytes - 2 do
        let c = rand () mod 256 in
        Bytes.set b j (Char.chr c);
        sum := !sum + c
      done;
      Bytes.set b (cfg.chunk_bytes - 1) (Char.chr (!sum land 0xff));
      b)

(* Per-endpoint timer wheel: deadlines are absolute round-clock seconds,
   [seq] breaks ties in arm order, so the firing sequence is a pure
   function of the endpoint's own history. *)
type timers = {
  mutable pending : (float * int * (unit -> unit)) list;
  mutable next_seq : int;
}

let fire_due tm ~now =
  let rec go () =
    let due, later =
      List.partition (fun (d, _, _) -> d <= now +. 1e-9) tm.pending
    in
    match List.sort (fun (d, s, _) (d', s', _) -> compare (d, s) (d', s')) due with
    | [] -> ()
    | (_, _, k) :: rest ->
      tm.pending <- rest @ later;
      k ();
      go ()
  in
  go ()

(* One endpoint = one group: a complete private stack. *)
type ep = {
  conn : int;
  is_client : bool;
  group : int;
  peer : int;
  pool : Pool.t;
  mpool : Host.item Core.Msg.pool;
  host : Host.t;
  eng : Host.item Core.Engine.t;
  tm : timers;
  mutable frames : int;
  (* client-side application state *)
  mutable pcb : Pcb.t option;
  mutable sent_idx : int;
  recvd : Buffer.t;
  mutable completion_round : int;
}

let run ?(policy = Shard.Policy.Affinity) ~shards cfg =
  let groups = 2 * cfg.conns in
  let ipv4 = Ldlp_packet.Addr.Ipv4.of_string in
  let make ~shard ~groups:mine ~emit =
    let now = ref 0.0 in
    let metrics = ref None in
    let mk_ep g =
      let conn = g / 2 in
      let is_client = g land 1 = 0 in
      let pool = Pool.create () in
      let mpool = Core.Msg.pool () in
      let sub = conn land 0xff in
      let host =
        Host.create ~pool ~msg_pool:mpool
          ~mac:
            (Ldlp_packet.Addr.Mac.of_string
               (Printf.sprintf "02:00:00:%02x:00:%02x" sub
                  (if is_client then 2 else 1)))
          ~ip:(ipv4 (Printf.sprintf "10.0.%d.%d" sub (if is_client then 2 else 1)))
          ()
      in
      if not is_client then ignore (Host.listen host ~port:server_port);
      let ep_ref = ref None in
      let xmit frame =
        let ep = Option.get !ep_ref in
        ep.frames <- ep.frames + 1;
        let b = Mbuf.to_bytes frame in
        Mbuf.free pool frame;
        emit ~src_group:g ~dst_group:ep.peer b
      in
      let sheet =
        if not cfg.with_metrics then None
        else
          match !metrics with
          | Some m -> Some m
          | None ->
            let m =
              Metrics.create
                ~label:(Printf.sprintf "shard%d" shard)
                ~layer_names:
                  (List.map (fun l -> l.Core.Layer.name) (Host.layers host))
            in
            metrics := Some m;
            Some m
      in
      let eng =
        Core.Engine.rx_chain
          ~discipline:(Core.Engine.Ldlp Core.Batch.paper_default)
          ~layers:(Host.layers host)
          ~down:(fun m ->
            xmit m.Core.Msg.payload.Host.buf;
            Core.Msg.release mpool m)
          ~on_consume:(fun m -> Core.Msg.release mpool m)
          ?metrics:sheet ()
      in
      let tm = { pending = []; next_seq = 0 } in
      Host.attach_timers host
        ~now:(fun () -> !now)
        ~schedule:(fun d k ->
          let seq = tm.next_seq in
          tm.next_seq <- seq + 1;
          tm.pending <- (!now +. d, seq, k) :: tm.pending)
        ~tx:xmit;
      let ep =
        { conn; is_client; group = g; peer = g lxor 1; pool; mpool; host;
          eng; tm; frames = 0; pcb = None; sent_idx = 0;
          recvd = Buffer.create 256; completion_round = -1 }
      in
      ep_ref := Some ep;
      ep
    in
    let eps = List.map (fun g -> (g, mk_ep g)) mine in
    let payload = Array.init cfg.conns (payloads cfg) in
    let total_bytes = cfg.chunks * cfg.chunk_bytes in
    let service round ep =
      if ep.is_client then begin
        (match ep.pcb with
        | None ->
          let pcb, syn =
            Host.connect ep.host
              ~dst:(ipv4 (Printf.sprintf "10.0.%d.1" (ep.conn land 0xff)), server_port)
              ~src_port:client_port
          in
          ep.pcb <- Some pcb;
          ep.frames <- ep.frames + 1;
          let b = Mbuf.to_bytes syn in
          Mbuf.free ep.pool syn;
          emit ~src_group:ep.group ~dst_group:ep.peer b
        | Some _ -> ());
        match ep.pcb with
        | Some pcb when pcb.Pcb.state = Pcb.Established ->
          if Sockbuf.length pcb.Pcb.sockbuf > 0 then begin
            Buffer.add_bytes ep.recvd (Sockbuf.read_all pcb.Pcb.sockbuf);
            if
              Buffer.length ep.recvd >= total_bytes
              && ep.completion_round < 0
            then ep.completion_round <- round
          end;
          while
            ep.sent_idx < cfg.chunks && Pcb.unacked pcb < client_window
          do
            (match Host.send ep.host pcb payload.(ep.conn).(ep.sent_idx) with
            | Some frame ->
              ep.frames <- ep.frames + 1;
              let b = Mbuf.to_bytes frame in
              Mbuf.free ep.pool frame;
              emit ~src_group:ep.group ~dst_group:ep.peer b
            | None -> ());
            ep.sent_idx <- ep.sent_idx + 1
          done
        | _ -> ()
      end
      else
        let client_ip = ipv4 (Printf.sprintf "10.0.%d.2" (ep.conn land 0xff)) in
        match
          Pcb.lookup (Host.table ep.host) ~local_port:server_port
            ~remote:(client_ip, client_port)
        with
        | Some pcb
          when (pcb.Pcb.state = Pcb.Established
               || pcb.Pcb.state = Pcb.Close_wait)
               && Sockbuf.length pcb.Pcb.sockbuf > 0
               && Pcb.unacked pcb < 2 * client_window -> (
          let data = Sockbuf.read_all pcb.Pcb.sockbuf in
          match Host.send ep.host pcb data with
          | Some frame ->
            ep.frames <- ep.frames + 1;
            let b = Mbuf.to_bytes frame in
            Mbuf.free ep.pool frame;
            emit ~src_group:ep.group ~dst_group:ep.peer b
          | None -> ())
        | _ -> ()
    in
    {
      Shard.w_deliver =
        (fun ~src_group:_ ~dst_group b ->
          let ep = List.assoc dst_group eps in
          let frame = Mbuf.of_bytes ep.pool b in
          Core.Engine.inject ep.eng ~node:0
            (Core.Msg.acquire ep.mpool ~arrival:!now
               ~size:(Mbuf.length frame) (Host.wrap ep.host frame)));
      w_step =
        (fun ~round ->
          now := float_of_int round *. round_dt;
          List.iter
            (fun (_, ep) ->
              Core.Engine.run ep.eng;
              service round ep;
              fire_due ep.tm ~now:!now;
              (* A timer may have transmitted or freed state the app can
                 now act on. *)
              Core.Engine.run ep.eng;
              service round ep)
            eps;
          List.exists
            (fun (_, ep) ->
              ep.tm.pending <> []
              || (ep.is_client && ep.completion_round < 0))
            eps);
      w_finish =
        (fun () ->
          let per_ep =
            List.map
              (fun (_, ep) ->
                let ps = Pool.stats ep.pool in
                let ms = Core.Msg.pool_stats ep.mpool in
                let leak_free =
                  ps.Pool.small_in_use = 0
                  && ps.Pool.cluster_in_use = 0
                  && ms.Core.Msg.p_outstanding = 0
                in
                let counters = Host.counters ep.host in
                (ep, leak_free, counters.Host.retransmits))
              eps
          in
          (per_ep, !metrics))
    }
  in
  let results, stats =
    (* The Obs gate is a plain flag: flip it before the domains spawn
       (the spawn edge publishes it) and restore after the joins. *)
    if cfg.with_metrics then
      Ldlp_obs.Obs.with_enabled true (fun () ->
          Shard.run ~policy ~shards ~groups ~make ())
    else Shard.run ~policy ~shards ~groups ~make ()
  in
  let expected =
    Array.init cfg.conns (fun conn ->
        String.concat ""
          (Array.to_list (Array.map Bytes.to_string (payloads cfg conn))))
  in
  let client = Array.make cfg.conns None in
  let server = Array.make cfg.conns None in
  let merged = ref None in
  Array.iter
    (fun (per_ep, sheet) ->
      (match sheet with
      | Some m -> (
        match !merged with
        | None ->
          let dst = Metrics.create ~label:"shards" ~layer_names:(Metrics.layer_names m) in
          Metrics.merge_into ~dst m;
          merged := Some dst
        | Some dst -> Metrics.merge_into ~dst m)
      | None -> ());
      List.iter
        (fun ((ep : ep), leak_free, retransmits) ->
          let slot = if ep.is_client then client else server in
          slot.(ep.conn) <- Some (ep, leak_free, retransmits))
        per_ep)
    results;
  let conns =
    Array.init cfg.conns (fun k ->
        match (client.(k), server.(k)) with
        | Some (cep, cleak, crex), Some (sep, sleak, srex) ->
          {
            cr_conn = k;
            cr_completed = cep.completion_round >= 0;
            cr_integrity =
              String.equal (Buffer.contents cep.recvd) expected.(k);
            cr_echoed_bytes = Buffer.length cep.recvd;
            cr_completion_round = cep.completion_round;
            cr_retransmits = crex + srex;
            cr_client_frames = cep.frames;
            cr_server_frames = sep.frames;
            cr_leak_free = cleak && sleak;
          }
        | _ -> failwith "Shard_echo.run: missing endpoint report")
  in
  { e_conns = conns; e_stats = stats; e_metrics = !merged }

let all_ok r =
  Array.for_all
    (fun c -> c.cr_completed && c.cr_integrity && c.cr_leak_free)
    r.e_conns

let strip c =
  ( c.cr_conn, c.cr_completed, c.cr_integrity, c.cr_echoed_bytes,
    c.cr_completion_round, c.cr_retransmits, c.cr_client_frames,
    c.cr_server_frames, c.cr_leak_free )

let equal_reports a b =
  Array.length a.e_conns = Array.length b.e_conns
  && Array.for_all2 (fun x y -> strip x = strip y) a.e_conns b.e_conns
