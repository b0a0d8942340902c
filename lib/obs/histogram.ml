(* Bounded power-of-two histogram over non-negative integers.

   Bucket 0 holds exactly the value 0; bucket b >= 1 holds the range
   [2^(b-1), 2^b - 1] (the last bucket is open-ended).  The bucket count
   is fixed, so two histograms always have compatible geometry and
   [merge_into] is a plain element-wise sum — which is what lets per-domain
   sheets from [Ldlp_par.Pool] workers be combined deterministically.

   Alongside the buckets we keep exact count/sum/min/max, so [mean] is
   exact and quantiles are only as coarse as the bucket they land in:
   [quantile] returns the upper bound of the bucket containing the
   rank-th smallest recorded value, clamped to the true maximum. *)

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
}

let nbuckets = 63

let create () =
  {
    counts = Array.make nbuckets 0;
    count = 0;
    sum = 0;
    vmin = max_int;
    vmax = min_int;
  }

let bucket_of v =
  if v < 0 then invalid_arg "Histogram.bucket_of: negative value";
  let b = ref 0 and x = ref v in
  while !x > 0 do
    incr b;
    x := !x lsr 1
  done;
  if !b >= nbuckets then nbuckets - 1 else !b

let bucket_lo b = if b <= 0 then 0 else 1 lsl (b - 1)

let bucket_hi b =
  if b <= 0 then 0 else if b >= nbuckets - 1 then max_int else (1 lsl b) - 1

let add t v =
  let b = bucket_of v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v

let count t = t.count

let sum t = t.sum

let mean t =
  if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let min_value t = if t.count = 0 then 0 else t.vmin

let max_value t = if t.count = 0 then 0 else t.vmax

let quantile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Histogram.quantile: p outside [0, 1]";
  if t.count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let acc = ref 0 and b = ref 0 and chosen = ref (nbuckets - 1) in
    (try
       while !b < nbuckets do
         acc := !acc + t.counts.(!b);
         if !acc >= rank then begin
           chosen := !b;
           raise Exit
         end;
         incr b
       done
     with Exit -> ());
    Stdlib.min (bucket_hi !chosen) t.vmax
  end

let median t = quantile t 0.5

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.count > 0 then begin
    if src.vmin < dst.vmin then dst.vmin <- src.vmin;
    if src.vmax > dst.vmax then dst.vmax <- src.vmax
  end

let equal a b =
  a.counts = b.counts && a.count = b.count && a.sum = b.sum && a.vmin = b.vmin
  && a.vmax = b.vmax

let buckets t =
  let acc = ref [] in
  for b = nbuckets - 1 downto 0 do
    if t.counts.(b) > 0 then acc := (bucket_lo b, bucket_hi b, t.counts.(b)) :: !acc
  done;
  !acc

let summary t =
  if t.count = 0 then "n=0"
  else
    Printf.sprintf "n=%d mean=%.2f p50<=%d p99<=%d max=%d" t.count (mean t)
      (median t) (quantile t 0.99) (max_value t)
