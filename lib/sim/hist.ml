(* Geometry: 20 buckets per decade from 1e-7 to 1e3. *)
let lo = 1e-7

let log_lo = log lo

let scale = 20.0 /. log 10.0 (* buckets per natural-log unit *)

let nbuckets = int_of_float (ceil (log10 (1e3 /. lo) *. 20.0)) + 1

type t = {
  counts : int array;
  exact : Stats.t; (* exact mean/min/max alongside bucketed percentiles *)
}

let create () = { counts = Array.make nbuckets 0; exact = Stats.create () }

let bucket_of x =
  let x = if x < lo then lo else x in
  let b = int_of_float ((log x -. log_lo) *. scale) in
  if b < 0 then 0 else if b >= nbuckets then nbuckets - 1 else b

let upper_bound b = exp (log_lo +. (float_of_int (b + 1) /. scale))

let add t x =
  let b = bucket_of x in
  t.counts.(b) <- t.counts.(b) + 1;
  Stats.add t.exact x

let count t = Stats.count t.exact

let mean t = Stats.mean t.exact

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
           result := upper_bound b;
           raise Exit
         end
       done
     with Exit -> ());
    (* Never report beyond the true extremes. *)
    Stdlib.min !result (Stats.max t.exact)
  end

let median t = percentile t 0.5

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  Stats.copy_into ~dst:dst.exact (Stats.merge dst.exact src.exact)

let buckets t =
  let acc = ref [] in
  for b = Array.length t.counts - 1 downto 0 do
    if t.counts.(b) > 0 then acc := (upper_bound b, t.counts.(b)) :: !acc
  done;
  !acc
