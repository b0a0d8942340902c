module Rng = Ldlp_sim.Rng
module Flowmix = Ldlp_traffic.Flowmix
module Replace = Ldlp_cache.Replace

type scheme = Direct | Set_assoc of int | Lru_stack

let scheme_name = function
  | Direct -> "direct"
  | Set_assoc w -> Printf.sprintf "assoc%d" w
  | Lru_stack -> "lru"

let all_schemes = [ Direct; Set_assoc 4; Lru_stack ]

(* (sets, ways) of a [slots]-entry front cache. *)
let geometry scheme slots =
  match scheme with
  | Direct -> (slots, 1)
  | Set_assoc w -> (slots / w, w)
  | Lru_stack -> (1, slots)

type row = {
  r_flows : int;
  r_scheme : scheme;
  r_ldlp : bool;
  r_lookups : int;
  r_found : int;
  r_model_hits : int;
  r_model_misses : int;
  r_model_evictions : int;
  r_digest : int;
}

let misses_per_lookup r =
  if r.r_lookups = 0 then 0.0
  else float_of_int r.r_model_misses /. float_of_int r.r_lookups

type config = {
  slots : int;
  batch : int;
  lookups : int;
  sources : int;
  alpha : float;
  mean_train : float;
}

let quick =
  {
    slots = 256;
    batch = 1024;
    lookups = 16384;
    sources = 512;
    alpha = 1.1;
    mean_train = 8.0;
  }

let bench = { quick with lookups = 65536 }

(* Order-sensitive fold over delivered states: any scheme or discipline
   delivering a different state (or the same states in a different
   arrival position) produces a different digest. *)
let digest_add acc v = (acc * 1000003) + Hashtbl.hash v

(* One (scheme, discipline) pass: a fresh front cache of the scheme's
   geometry over the slot hashes, the exact [store] behind it.  Flows
   colliding on a hash alias in the model, as addresses alias in a real
   D-cache, and cost nothing for correctness.  The LDLP pass sorts each
   batch by (set, slot hash, arrival), so same-flow repeats become
   adjacent and same-set conflicts are grouped; results land in arrival
   position either way. *)
let replay store ~flows ~scheme ~slots ~ldlp ~batch arrivals hashes =
  let sets, ways = geometry scheme slots in
  let front = Replace.create ~sets ~ways in
  let n = Array.length arrivals in
  let delivered = Array.make n None in
  let hits = ref 0 in
  let lookup i =
    if Replace.access front hashes.(i) then incr hits;
    let slot = Flat.find store arrivals.(i) in
    if slot >= 0 then delivered.(i) <- Some (Flat.value store slot)
  in
  if not ldlp then
    for i = 0 to n - 1 do
      lookup i
    done
  else begin
    let set i = hashes.(i) land (sets - 1) in
    let by_slot a b =
      if set a <> set b then compare (set a) (set b)
      else if hashes.(a) <> hashes.(b) then compare hashes.(a) hashes.(b)
      else compare a b
    in
    let off = ref 0 in
    while !off < n do
      let order = Array.init (Int.min batch (n - !off)) (fun j -> !off + j) in
      Array.sort by_slot order;
      Array.iter lookup order;
      off := !off + Array.length order
    done
  end;
  {
    r_flows = flows;
    r_scheme = scheme;
    r_ldlp = ldlp;
    r_lookups = n;
    r_found =
      Array.fold_left (fun c v -> if Option.is_some v then c + 1 else c) 0 delivered;
    r_model_hits = !hits;
    r_model_misses = n - !hits;
    r_model_evictions = Replace.evictions front;
    r_digest = Array.fold_left digest_add 0 delivered;
  }

let run ?(config = quick) ~flows ~seed () =
  let rng = Rng.create ~seed in
  let mix =
    Flowmix.create ~rng
      {
        Flowmix.flows;
        sources = config.sources;
        alpha = config.alpha;
        mean_train = config.mean_train;
      }
  in
  let arrivals = Flowmix.stream mix config.lookups in
  let hashes = Array.map Hashtbl.hash arrivals in
  (* Every flow is connected before the replay: the study measures
     lookup locality, not connection setup. *)
  let store = Flat.create () in
  for k = 0 to flows - 1 do
    Flat.add store k k
  done;
  List.concat_map
    (fun scheme ->
      List.map
        (fun ldlp ->
          replay store ~flows ~scheme ~slots:config.slots ~ldlp
            ~batch:config.batch arrivals hashes)
        [ false; true ])
    all_schemes
let render ?(config = quick) ~rows ~seed () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "Flow-table locality: modeled D-misses per lookup, conv vs LDLP \
     batch-sorted\n";
  Buffer.add_string b
    (Printf.sprintf
       "  %d modeled entries/scheme, batch %d, %d lookups, %d sources, \
        Zipf %.1f, seed %d\n\n"
       config.slots config.batch config.lookups config.sources config.alpha
       seed);
  Buffer.add_string b
    "  flows     scheme   conv m/l   ldlp m/l    evic(ldlp)   win\n";
  let flows_list =
    List.sort_uniq compare (List.map (fun r -> r.r_flows) rows)
  in
  List.iter
    (fun flows ->
      List.iter
        (fun scheme ->
          let find ldlp =
            List.find
              (fun r ->
                r.r_flows = flows && r.r_scheme = scheme && r.r_ldlp = ldlp)
              rows
          in
          let conv = find false and ldlp = find true in
          let cm = misses_per_lookup conv and lm = misses_per_lookup ldlp in
          Buffer.add_string b
            (Printf.sprintf
               "  %-9d %-8s %8.4f   %8.4f   %9d   %5.2fx%s\n" flows
               (scheme_name scheme)
               cm lm ldlp.r_model_evictions
               (if lm > 0.0 then cm /. lm else 0.0)
               (if conv.r_digest = ldlp.r_digest then "" else "  DIGEST MISMATCH")))
        all_schemes)
    flows_list;
  Buffer.add_string b
    "\n  Delivered states are scheme- and discipline-independent (exact \
     backing\n\
    \  store); sorting a receive batch by flow slot recovers the temporal\n\
    \  locality that source interleaving destroys in arrival order.";
  Buffer.contents b
