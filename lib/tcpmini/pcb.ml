module Ipv4 = Ldlp_packet.Addr.Ipv4
module Tcp = Ldlp_packet.Tcp

type state = Listen | Syn_sent | Syn_received | Established | Close_wait | Closed

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

module Flat = Ldlp_flowtable.Flat

type stats = {
  lookups : int;
  cache_hits : int;
  table_hits : int;
  misses : int;
  allocated : int;
  freed : int;
}

(* A connection's key is 64 bits (remote address, local port, remote
   port) and a [Flat] key 62, so there are four [Flat] tables, one per
   value of the address's top two bits, each keyed by the other 62: the
   address's bits 0-29, then the local port, then the remote port.  A
   table maps a key to the PCB's row in [rows].  A free row holds [none]
   and [next.(row)] is the next free row (-1 for none). *)
type table = {
  index : Flat.t array;
  mutable rows : t array;
  mutable next : int array;
  mutable free : int;  (* first free row, -1 for none *)
  listeners : (int, t) Hashtbl.t;
  (* The paper's single-entry PCB cache, as mutable fields: refilling it
     on every table hit must not allocate.  [cache_pcb == none] when
     empty. *)
  mutable cache_port : int;
  mutable cache_rip : Ipv4.t;
  mutable cache_rport : int;
  mutable cache_pcb : t;
  mutable owner : int;  (* -1 until the first table access claims it *)
  mutable lookups : int;
  mutable cache_hits : int;
  mutable table_hits : int;
  mutable misses : int;
  mutable allocated : int;
  mutable freed : int;
  (* The table behind the cache: its lookups (the cache's misses and
     [insert_active]'s check) and how many found a connection, and its
     inserts.  Its removes are [freed]. *)
  mutable probes : int;
  mutable found : int;
  mutable inserts : int;
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
    index = Array.init 4 (fun _ -> Flat.create ());
    rows = [||];
    next = [||];
    free = -1;
    listeners = Hashtbl.create 8;
    cache_port = -1;
    cache_rip = Ipv4.of_int32 0l;
    cache_rport = -1;
    cache_pcb = none;
    owner = -1;
    lookups = 0;
    cache_hits = 0;
    table_hits = 0;
    misses = 0;
    allocated = 0;
    freed = 0;
    probes = 0;
    found = 0;
    inserts = 0;
  }

let ports_fit local_port rport = (local_port lor rport) lsr 16 = 0

let listen table ~port ?hiwat () =
  if not (ports_fit port 0) then
    invalid_arg (Printf.sprintf "Pcb.listen: port %d outside [0, 65535]" port);
  if Hashtbl.mem table.listeners port then
    invalid_arg (Printf.sprintf "Pcb.listen: port %d already bound" port);
  let pcb = fresh ~local_port:port ~state:Listen ?hiwat () in
  Hashtbl.replace table.listeners port pcb;
  table.allocated <- table.allocated + 1;
  pcb

(* Domain-local, like a [Ldlp_core.Msg] pool: the first table access
   claims the table for the calling domain, and an access from any other
   domain raises.  A parallel soak builds each scenario's hosts inside
   the domain that runs them, so the claim lands on that domain. *)
let guard table =
  let me = (Domain.self () :> int) in
  if table.owner <> me then
    if table.owner < 0 then table.owner <- me
    else
      invalid_arg
        (Printf.sprintf "Pcb: table owned by domain %d, accessed from domain %d"
           table.owner me)

(* A remote address as an int: bits 0-31 hold the address. *)
let addr rip = Int32.to_int (Ipv4.to_int32 rip)

(* The [Flat] table for an address, and the key in it of a connection
   whose ports fit in 16 bits. *)
let index table a = table.index.((a lsr 30) land 3)

let key a ~local_port rport =
  ((a land 0x3FFF_FFFF) lsl 32) lor (local_port lsl 16) lor rport

(* The connection's row, or -1. *)
let locate table ~local_port rip rport =
  guard table;
  if not (ports_fit local_port rport) then -1
  else
    let a = addr rip in
    let index = index table a in
    let slot = Flat.find index (key a ~local_port rport) in
    if slot < 0 then -1 else Flat.value index slot

(* [locate], counted as a lookup in the table behind the cache. *)
let probe table ~local_port rip rport =
  table.probes <- table.probes + 1;
  let r = locate table ~local_port rip rport in
  if r >= 0 then table.found <- table.found + 1;
  r

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
    let r = probe table ~local_port rip rport in
    if r >= 0 then begin
      let pcb = table.rows.(r) in
      cache table ~local_port rip rport pcb;
      table.table_hits <- table.table_hits + 1;
      pcb
    end
    else begin
      (* A listener match is still a connection-table miss: the segment
         took the slow path through demultiplexing. *)
      table.misses <- table.misses + 1;
      match Hashtbl.find_opt table.listeners local_port with
      | Some l -> l
      | None -> none
    end

let lookup table ~local_port ~remote:(rip, rport) =
  let pcb = find table ~local_port ~rip ~rport in
  if pcb == none then None else Some pcb

(* When no row is free, the rows double (from 16) and the new ones make
   up the free list. *)
let grow table =
  let n = Array.length table.rows in
  let grown = Int.max 16 (2 * n) in
  let rows = Array.make grown none in
  Array.blit table.rows 0 rows 0 n;
  table.rows <- rows;
  table.next <- Array.init grown (fun r -> if r + 1 < grown then r + 1 else -1);
  table.free <- n

let connect table ~local_port ~remote:((rip, rport) as remote) ~state ~hiwat =
  guard table;
  if not (ports_fit local_port rport) then
    invalid_arg
      (Printf.sprintf "Pcb: port outside [0, 65535] (local %d, remote %d)"
         local_port rport);
  let pcb = fresh ~local_port ~state ~hiwat () in
  pcb.remote <- Some remote;
  let a = addr rip in
  let index = index table a and k = key a ~local_port rport in
  let slot = Flat.find index k in
  (* A listener cloned again for a connection that has a row replaces
     the row's PCB. *)
  if slot >= 0 then table.rows.(Flat.value index slot) <- pcb
  else begin
    if table.free < 0 then grow table;
    let r = table.free in
    table.free <- table.next.(r);
    table.rows.(r) <- pcb;
    Flat.add index k r
  end;
  cache table ~local_port rip rport pcb;
  table.inserts <- table.inserts + 1;
  table.allocated <- table.allocated + 1;
  pcb

let insert_connection table ~listener ~remote =
  connect table ~local_port:listener.local_port ~remote ~state:Syn_received
    ~hiwat:(Sockbuf.hiwat listener.sockbuf)

let insert_active table ~local_port ~remote:((rip, rport) as remote) () =
  if ports_fit local_port rport && probe table ~local_port rip rport >= 0 then
    invalid_arg "Pcb.insert_active: connection exists";
  connect table ~local_port ~remote ~state:Syn_sent ~hiwat:16384

(* Only the PCB a row holds is released: dropping one again, after its
   connection was reopened, leaves the new connection alone. *)
let drop table pcb =
  match pcb.remote with
  | None -> ()
  | Some (rip, rport) ->
    let r = locate table ~local_port:pcb.local_port rip rport in
    if r >= 0 && table.rows.(r) == pcb then begin
      let a = addr rip in
      Flat.remove (index table a) (key a ~local_port:pcb.local_port rport);
      table.rows.(r) <- none;
      table.next.(r) <- table.free;
      table.free <- r;
      if table.cache_pcb == pcb then table.cache_pcb <- none;
      table.freed <- table.freed + 1
    end;
    pcb.state <- Closed

let connections table =
  Array.fold_left (fun n index -> n + Flat.length index) 0 table.index

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
  set "table.lookups" table.probes;
  set "table.found" table.found;
  set "table.missing" (table.probes - table.found);
  set "table.inserts" table.inserts;
  set "table.removes" table.freed;
  set "table.entries" (connections table)

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
