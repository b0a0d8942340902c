module Ipv4 = Ldlp_packet.Addr.Ipv4
module Tcp = Ldlp_packet.Tcp

type state = Listen | Syn_sent | Syn_received | Established | Close_wait | Closed

let state_name = function
  | Listen -> "listen"
  | Syn_sent -> "syn-sent"
  | Syn_received -> "syn-received"
  | Established -> "established"
  | Close_wait -> "close-wait"
  | Closed -> "closed"

type seg = {
  seg_seq : int;
  seg_flags : int;
  seg_payload : bytes;
  mutable seg_sent_at : float;
  mutable seg_rexmits : int;
}

type t = {
  local_port : int;
  mutable remote : (Ipv4.t * int) option;
  mutable state : state;
  mutable irs : int;
  mutable rcv_nxt : int;
  mutable snd_nxt : int;
  mutable snd_una : int;
  mutable delayed_ack : int;
  sockbuf : Sockbuf.t;
  rto : Rto.t;
  mutable retx : seg list;  (* unacknowledged segments, oldest first *)
  mutable dupacks : int;
  mutable fast_retx_pending : bool;
  mutable rtx_armed : bool;
  mutable delack_armed : bool;
}

module Flowtable = Ldlp_flowtable.Flowtable

type key = int * int32 * int (* local port, remote ip, remote port *)

type stats = {
  lookups : int;
  cache_hits : int;
  table_hits : int;
  misses : int;
  allocated : int;
  freed : int;
}

type table = {
  conns : (key, t) Flowtable.t;
  listeners : (int, t) Hashtbl.t;
  (* The paper's single-entry PCB cache, as mutable fields: refilling it
     on every table hit must not allocate.  [cache_pcb == none] when
     empty. *)
  mutable cache_port : int;
  mutable cache_rip : Ipv4.t;
  mutable cache_rport : int;
  mutable cache_pcb : t;
  mutable lookups : int;
  mutable cache_hits : int;
  mutable table_hits : int;
  mutable misses : int;
  mutable allocated : int;
  mutable freed : int;
}

let fresh ~local_port ~state ?(hiwat = 16384) () =
  {
    local_port;
    remote = None;
    state;
    irs = 0;
    rcv_nxt = 0;
    snd_nxt = 1;
    snd_una = 1;
    delayed_ack = 0;
    sockbuf = Sockbuf.create ~hiwat ();
    rto = Rto.create ();
    retx = [];
    dupacks = 0;
    fast_retx_pending = false;
    rtx_armed = false;
    delack_armed = false;
  }

let none = fresh ~local_port:(-1) ~state:Closed ()

let create_table () =
  {
    (* The modeled front cache rides behind the paper's one-entry cache. *)
    conns = Flowtable.create ~name:"tcp-pcb" ();
    listeners = Hashtbl.create 8;
    cache_port = -1;
    cache_rip = Ipv4.of_int32 0l;
    cache_rport = -1;
    cache_pcb = none;
    lookups = 0;
    cache_hits = 0;
    table_hits = 0;
    misses = 0;
    allocated = 0;
    freed = 0;
  }

let listen table ~port ?hiwat () =
  if Hashtbl.mem table.listeners port then
    invalid_arg (Printf.sprintf "Pcb.listen: port %d already bound" port);
  let pcb = fresh ~local_port:port ~state:Listen ?hiwat () in
  Hashtbl.replace table.listeners port pcb;
  table.allocated <- table.allocated + 1;
  pcb

let key ~local_port rip rport = (local_port, Ipv4.to_int32 rip, rport)

let cache table ~local_port rip rport pcb =
  table.cache_port <- local_port;
  table.cache_rip <- rip;
  table.cache_rport <- rport;
  table.cache_pcb <- pcb

let cached table ~local_port rip rport =
  table.cache_pcb != none
  && table.cache_port = local_port
  && table.cache_rport = rport
  && Ipv4.equal table.cache_rip rip

let find table ~local_port ~rip ~rport =
  table.lookups <- table.lookups + 1;
  if cached table ~local_port rip rport then begin
    table.cache_hits <- table.cache_hits + 1;
    table.cache_pcb
  end
  else
    match Flowtable.lookup table.conns (key ~local_port rip rport) with
    | Some pcb ->
      cache table ~local_port rip rport pcb;
      table.table_hits <- table.table_hits + 1;
      pcb
    | None -> (
      (* A listener match is still a connection-table miss: the segment
         took the slow path through demultiplexing. *)
      table.misses <- table.misses + 1;
      match Hashtbl.find_opt table.listeners local_port with
      | Some l -> l
      | None -> none)

let lookup table ~local_port ~remote:(rip, rport) =
  let pcb = find table ~local_port ~rip ~rport in
  if pcb == none then None else Some pcb

let connect table ~local_port ~remote:((rip, rport) as remote) ~state ~hiwat =
  let pcb = fresh ~local_port ~state ~hiwat () in
  pcb.remote <- Some remote;
  Flowtable.insert table.conns (key ~local_port rip rport) pcb;
  cache table ~local_port rip rport pcb;
  table.allocated <- table.allocated + 1;
  pcb

let insert_connection table ~listener ~remote =
  connect table ~local_port:listener.local_port ~remote ~state:Syn_received
    ~hiwat:(Sockbuf.hiwat listener.sockbuf)

let insert_active table ~local_port ~remote:((rip, rport) as remote) ?(hiwat = 16384) () =
  if Flowtable.mem table.conns (key ~local_port rip rport) then
    invalid_arg "Pcb.insert_active: connection exists";
  connect table ~local_port ~remote ~state:Syn_sent ~hiwat

let drop table pcb =
  match pcb.remote with
  | None -> ()
  | Some (rip, rport) ->
    Flowtable.remove table.conns (key ~local_port:pcb.local_port rip rport);
    if cached table ~local_port:pcb.local_port rip rport then table.cache_pcb <- none;
    pcb.state <- Closed;
    table.freed <- table.freed + 1

let connections table = Flowtable.length table.conns

let stats table =
  {
    lookups = table.lookups;
    cache_hits = table.cache_hits;
    table_hits = table.table_hits;
    misses = table.misses;
    allocated = table.allocated;
    freed = table.freed;
  }

let metrics_scalars m table =
  let module Metrics = Ldlp_obs.Metrics in
  let set n v = Metrics.scalar m ("flow." ^ n) := v in
  set "lookups" table.lookups;
  set "cache_hits" table.cache_hits;
  set "table_hits" table.table_hits;
  set "misses" table.misses;
  set "allocated" table.allocated;
  set "freed" table.freed;
  Flowtable.metrics_scalars ~prefix:"flow.table" m table.conns

(* ---------- retransmission bookkeeping ---------- *)

let seg_span s =
  Bytes.length s.seg_payload
  + (if s.seg_flags land Tcp.flag_syn <> 0 then 1 else 0)
  + if s.seg_flags land Tcp.flag_fin <> 0 then 1 else 0

let track pcb ~now ~seq ~flags payload =
  if not (List.exists (fun s -> s.seg_seq = seq) pcb.retx) then
    pcb.retx <-
      pcb.retx
      @ [
          {
            seg_seq = seq;
            seg_flags = flags;
            seg_payload = payload;
            seg_sent_at = now;
            seg_rexmits = 0;
          };
        ]

let unacked pcb = List.length pcb.retx

let oldest_unacked pcb = match pcb.retx with [] -> None | s :: _ -> Some s

type ack_class = Ack_new of float option | Ack_duplicate | Ack_old

let on_ack pcb ~now ack =
  if Tcp.seq_lt pcb.snd_una ack && Tcp.seq_leq ack pcb.snd_nxt then begin
    pcb.snd_una <- ack;
    pcb.dupacks <- 0;
    Rto.reset_backoff pcb.rto;
    match pcb.retx with
    | [] ->
      (* Nothing tracked (no timers attached): a constant, so the
         per-segment ACK path allocates nothing. *)
      Ack_new None
    | retx ->
      let acked, rest =
        List.partition
          (fun s -> Tcp.seq_leq (Tcp.seq_add s.seg_seq (seg_span s)) ack)
          retx
      in
      pcb.retx <- rest;
      (* Karn's rule: only a segment transmitted exactly once yields an
         RTT sample (take the newest fully covered one). *)
      let sample =
        List.fold_left
          (fun acc s -> if s.seg_rexmits = 0 then Some (now -. s.seg_sent_at) else acc)
          None acked
      in
      Ack_new sample
  end
  else if ack = pcb.snd_una then Ack_duplicate
  else Ack_old
