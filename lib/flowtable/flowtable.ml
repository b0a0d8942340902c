module Memsys = Ldlp_cache.Memsys
module Replace = Ldlp_cache.Replace

type scheme = Direct | Set_assoc of int | Lru_stack

let scheme_name = function
  | Direct -> "direct"
  | Set_assoc w -> Printf.sprintf "assoc%d" w
  | Lru_stack -> "lru"

let all_schemes = [ Direct; Set_assoc 4; Lru_stack ]

type stats = {
  lookups : int;
  found : int;
  missing : int;
  model_hits : int;
  model_misses : int;
  model_evictions : int;
  inserts : int;
  removes : int;
}

type ('k, 'v) t = {
  tbl_name : string;
  entry_bytes : int;
  set_mask : int; (* sets - 1, for the batch sort key *)
  rep : Replace.t; (* front-cache model over slot hashes *)
  backing : ('k, 'v) Hashtbl.t; (* exact; correctness never depends on rep *)
  memsys : Memsys.t option;
  mutable owner : int; (* -1 = unclaimed; else domain id *)
  mutable lookups : int;
  mutable found : int;
  mutable missing : int;
  mutable model_hits : int;
  mutable model_misses : int;
  mutable inserts : int;
  mutable removes : int;
  mutable ev_base : int; (* Replace eviction count at last reset *)
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let geometry scheme slots =
  match scheme with
  | Direct -> (slots, 1)
  | Lru_stack -> (1, slots)
  | Set_assoc w ->
    if w < 1 then invalid_arg "Flowtable.create: associativity must be >= 1";
    if slots mod w <> 0 then
      invalid_arg "Flowtable.create: slots not divisible by associativity";
    (slots / w, w)

let create ?(scheme = Set_assoc 4) ?(slots = 1024) ?(entry_bytes = 64)
    ?(buckets = 64) ?memsys ~name () =
  if not (is_pow2 slots) then
    invalid_arg "Flowtable.create: slots must be a power of two";
  if entry_bytes <= 0 then
    invalid_arg "Flowtable.create: entry_bytes must be positive";
  let sets, ways = geometry scheme slots in
  if not (is_pow2 sets) then
    invalid_arg "Flowtable.create: sets must be a power of two";
  {
    tbl_name = name;
    entry_bytes;
    set_mask = sets - 1;
    rep = Replace.create ~sets ~ways;
    backing = Hashtbl.create buckets;
    memsys;
    owner = -1;
    lookups = 0;
    found = 0;
    missing = 0;
    model_hits = 0;
    model_misses = 0;
    inserts = 0;
    removes = 0;
    ev_base = 0;
  }

(* Domain-local tripwire, same discipline as [Ldlp_core.Msg] pools: the
   first guarded access claims the table for its domain. *)
let guard t =
  let me = (Domain.self () :> int) in
  if t.owner < 0 then t.owner <- me
  else if t.owner <> me then
    invalid_arg
      (Printf.sprintf
         "Flowtable %s: owned by domain %d, accessed from domain %d"
         t.tbl_name t.owner me)

(* One modeled reference to the flow's table entry.  [Hashtbl.hash] is the
   slot hash: distinct flows colliding on a hash alias in the model is the
   analogue of address aliasing in a real D-cache, and costs nothing for
   correctness (the backing store is exact). *)
let model_access t h =
  if Replace.access t.rep h then t.model_hits <- t.model_hits + 1
  else begin
    t.model_misses <- t.model_misses + 1;
    match t.memsys with
    | None -> ()
    | Some m ->
      Memsys.charge_read m ~addr:(h * t.entry_bytes) ~len:t.entry_bytes
        ~misses:1
  end

let lookup_hashed t h k =
  t.lookups <- t.lookups + 1;
  model_access t h;
  match Hashtbl.find_opt t.backing k with
  | Some _ as r ->
    t.found <- t.found + 1;
    r
  | None ->
    t.missing <- t.missing + 1;
    None

let lookup t k =
  guard t;
  lookup_hashed t (Hashtbl.hash k) k

let insert t k v =
  guard t;
  t.inserts <- t.inserts + 1;
  model_access t (Hashtbl.hash k);
  Hashtbl.replace t.backing k v

let remove t k =
  guard t;
  t.removes <- t.removes + 1;
  model_access t (Hashtbl.hash k);
  Hashtbl.remove t.backing k

let lookup_batch t keys =
  guard t;
  let n = Array.length keys in
  let hs = Array.map Hashtbl.hash keys in
  let order = Array.init n (fun i -> i) in
  (* Sort by (set, slot hash): same-flow duplicates become adjacent and
     same-set conflicts are grouped, so the model replays the batch with
     the locality the sorted order exposes.  The backing lookups are pure
     reads, so processing order cannot change the delivered results. *)
  Array.sort
    (fun a b ->
      let sa = hs.(a) land t.set_mask and sb = hs.(b) land t.set_mask in
      if sa <> sb then compare sa sb
      else if hs.(a) <> hs.(b) then compare hs.(a) hs.(b)
      else compare a b)
    order;
  let out = Array.make n None in
  Array.iter (fun i -> out.(i) <- lookup_hashed t hs.(i) keys.(i)) order;
  out

let length t = Hashtbl.length t.backing

let flush_cache t = Replace.flush t.rep

let stats t =
  {
    lookups = t.lookups;
    found = t.found;
    missing = t.missing;
    model_hits = t.model_hits;
    model_misses = t.model_misses;
    model_evictions = Replace.evictions t.rep - t.ev_base;
    inserts = t.inserts;
    removes = t.removes;
  }

let reset_stats t =
  t.lookups <- 0;
  t.found <- 0;
  t.missing <- 0;
  t.model_hits <- 0;
  t.model_misses <- 0;
  t.inserts <- 0;
  t.removes <- 0;
  t.ev_base <- Replace.evictions t.rep

let owner t = if t.owner < 0 then None else Some t.owner
