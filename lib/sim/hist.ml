type t = {
  lo : float;
  log_lo : float;
  scale : float; (* buckets per natural-log unit *)
  counts : int array;
  exact : Stats.t; (* exact mean/min/max alongside bucketed percentiles *)
}

let create ?(lo = 1e-7) ?(hi = 1e3) ?(buckets_per_decade = 20) () =
  let decades = log10 (hi /. lo) in
  let nbuckets = int_of_float (ceil (decades *. float_of_int buckets_per_decade)) + 1 in
  {
    lo;
    log_lo = log lo;
    scale = float_of_int buckets_per_decade /. log 10.0;
    counts = Array.make nbuckets 0;
    exact = Stats.create ();
  }

let bucket_of t x =
  let x = if x < t.lo then t.lo else x in
  let b = int_of_float ((log x -. t.log_lo) *. t.scale) in
  if b < 0 then 0
  else if b >= Array.length t.counts then Array.length t.counts - 1
  else b

let upper_bound t b = exp (t.log_lo +. (float_of_int (b + 1) /. t.scale))

let add t x =
  let b = bucket_of t x in
  t.counts.(b) <- t.counts.(b) + 1;
  Stats.add t.exact x

let count t = Stats.count t.exact

let mean t = Stats.mean t.exact

let min t = Stats.min t.exact

let max t = Stats.max t.exact

let percentile t p =
  let n = count t in
  if n = 0 then 0.0
  else begin
    let target = p *. float_of_int n in
    let acc = ref 0.0 in
    let result = ref (Stats.max t.exact) in
    (try
       for b = 0 to Array.length t.counts - 1 do
         acc := !acc +. float_of_int t.counts.(b);
         if !acc >= target then begin
           result := upper_bound t b;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report beyond the true extremes. *)
    Stdlib.min !result (Stats.max t.exact)
  end

let median t = percentile t 0.5

let merge_into ~dst src =
  if
    Array.length dst.counts <> Array.length src.counts
    || dst.lo <> src.lo || dst.scale <> src.scale
  then invalid_arg "Hist.merge_into: geometry mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  Stats.copy_into ~dst:dst.exact (Stats.merge dst.exact src.exact)

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  Stats.clear t.exact

let buckets t =
  let acc = ref [] in
  for b = Array.length t.counts - 1 downto 0 do
    if t.counts.(b) > 0 then acc := (upper_bound t b, t.counts.(b)) :: !acc
  done;
  !acc
