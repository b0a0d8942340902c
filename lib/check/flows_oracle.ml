module Study = Ldlp_flowtable.Study
module Flowmix = Ldlp_traffic.Flowmix
module R = Ldlp_sim.Rng

(* ---------- Naive front-cache model: per-set MRU lists ----------

   Everything is a linear scan over a list — no packed arrays, no
   in-place rotation, no direct-mapped fast path — mirroring
   [Cache_oracle] so the replacement policy is visibly the textbook
   one. *)

type model = {
  sets : int;
  ways : int;
  state : int list array; (* state.(set): resident hashes, MRU first *)
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_evictions : int;
}

let model_create scheme slots =
  let sets, ways =
    match scheme with
    | Study.Direct -> (slots, 1)
    | Study.Set_assoc w -> (slots / w, w)
    | Study.Lru_stack -> (1, slots)
  in
  {
    sets;
    ways;
    state = Array.make sets [];
    m_hits = 0;
    m_misses = 0;
    m_evictions = 0;
  }

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let model_access m h =
  let s = h mod m.sets in
  let ways = m.state.(s) in
  if List.mem h ways then begin
    m.m_hits <- m.m_hits + 1;
    m.state.(s) <- h :: List.filter (fun x -> x <> h) ways
  end
  else begin
    m.m_misses <- m.m_misses + 1;
    if List.length ways >= m.ways then m.m_evictions <- m.m_evictions + 1;
    m.state.(s) <- take m.ways (h :: ways)
  end

(* ---------- The reference replay ---------- *)

(* The specified batch processing order: (set, slot hash, arrival). *)
let batch_order ~sets keys =
  let key i =
    let h = Hashtbl.hash keys.(i) in
    (h mod sets, h, i)
  in
  List.sort compare (List.init (Array.length keys) key)
  |> List.map (fun (_, _, i) -> keys.(i))

let digest_add acc v = (acc * 1000003) + Hashtbl.hash v

(* The row a (scheme, discipline) pass over [arrivals] must produce.  The
   store holds every flow [k] as [k -> k], so a lookup delivers [Some k]
   exactly when [k] is one of the [flows] flows. *)
let reference ~(config : Study.config) ~flows ~scheme ~ldlp arrivals =
  let m = model_create scheme config.slots in
  let touch k = model_access m (Hashtbl.hash k) in
  let n = Array.length arrivals in
  if ldlp then begin
    let off = ref 0 in
    while !off < n do
      let len = min config.batch (n - !off) in
      List.iter touch (batch_order ~sets:m.sets (Array.sub arrivals !off len));
      off := !off + len
    done
  end
  else Array.iter touch arrivals;
  let delivered k = if k >= 0 && k < flows then Some k else None in
  {
    Study.r_flows = flows;
    r_scheme = scheme;
    r_ldlp = ldlp;
    r_lookups = n;
    r_found =
      Array.fold_left
        (fun c k -> if delivered k = None then c else c + 1)
        0 arrivals;
    r_model_hits = m.m_hits;
    r_model_misses = m.m_misses;
    r_model_evictions = m.m_evictions;
    r_digest = Array.fold_left (fun d k -> digest_add d (delivered k)) 0 arrivals;
  }

let pp_row (r : Study.row) =
  Printf.sprintf
    "%s/%s: lookups %d found %d hits %d misses %d evictions %d digest %d"
    (Study.scheme_name r.r_scheme)
    (if r.r_ldlp then "ldlp" else "conv")
    r.r_lookups r.r_found r.r_model_hits r.r_model_misses r.r_model_evictions
    r.r_digest

(* One random configuration: the study's rows against the references. *)
let check_case ~rng case =
  let pick a = a.(R.int rng (Array.length a)) in
  let config =
    {
      Study.quick with
      slots = pick [| 64; 256; 1024 |];
      batch = pick [| 1; 7; 64; 256; 1024 |];
      lookups = 512 + R.int rng 2048;
      sources = pick [| 16; 128; 512 |];
    }
  in
  let flows = pick [| 100; 2_000; 20_000 |] and seed = R.int rng 1_000_000 in
  let arrivals =
    Flowmix.stream
      (Flowmix.create ~rng:(R.create ~seed)
         {
           Flowmix.flows;
           sources = config.sources;
           alpha = config.alpha;
           mean_train = config.mean_train;
         })
      config.lookups
  in
  let want =
    List.concat_map
      (fun scheme ->
        List.map
          (fun ldlp -> reference ~config ~flows ~scheme ~ldlp arrivals)
          [ false; true ])
      Study.all_schemes
  in
  let got = Study.run ~config ~flows ~seed () in
  let where =
    Printf.sprintf
      "case %d (slots %d, batch %d, %d lookups, %d sources, %d flows, seed %d)"
      case config.slots config.batch config.lookups config.sources flows seed
  in
  if List.length got <> List.length want then
    Error
      (Printf.sprintf "%s: %d rows, expected %d" where (List.length got)
         (List.length want))
  else
    match List.find_opt (fun (g, w) -> g <> w) (List.combine got want) with
    | None -> Ok ()
    | Some (g, w) ->
      Error
        (Printf.sprintf "%s: study %s; reference %s" where (pp_row g) (pp_row w))

let run ~seed ~cases =
  let rng = R.create ~seed in
  let rec go case =
    if case > cases then Ok cases
    else
      match check_case ~rng case with
      | Error _ as e -> e
      | Ok () -> go (case + 1)
  in
  go 1
