type policy =
  | Fixed of int
  | Dcache_fit of { cache_bytes : int; per_msg_overhead : int }
  | All

let paper_default = Dcache_fit { cache_bytes = 8192; per_msg_overhead = 32 }

(* An indexed size accessor rather than a list, so the engine's quantum
   loop can compute a batch bound without materialising a per-quantum
   size list.  The counting recursion lives at toplevel: a local [let
   rec] with captures is a per-call closure allocation, which the
   allocation-free quantum cannot afford. *)
let rec dcache_count ~len ~size ~per_msg_overhead ~cache_bytes n used =
  if n >= len then n
  else begin
    let used = used + size n + per_msg_overhead in
    if used > cache_bytes && n > 0 then n
    else dcache_count ~len ~size ~per_msg_overhead ~cache_bytes (n + 1) used
  end

let limit policy ~len ~size =
  if len < 0 then invalid_arg "Batch.limit: negative length";
  if len = 0 then 0
  else
    match policy with
    | All -> len
    | Fixed n ->
      if n < 1 then invalid_arg "Batch.limit: Fixed n must be >= 1";
      Int.min n len
    | Dcache_fit { cache_bytes; per_msg_overhead } ->
      dcache_count ~len ~size ~per_msg_overhead ~cache_bytes 0 0

let pp ppf = function
  | Fixed n -> Format.fprintf ppf "fixed(%d)" n
  | Dcache_fit { cache_bytes; per_msg_overhead } ->
    Format.fprintf ppf "dcache-fit(%dB,+%dB/msg)" cache_bytes per_msg_overhead
  | All -> Format.fprintf ppf "all-available"
