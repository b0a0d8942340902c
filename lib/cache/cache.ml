(* The tag state and LRU/direct-mapped machinery live in [Replace] (shared
   with the flow study's front-cache model); this module adds the
   address-to-line mapping and the hit/miss counters the cost model
   reads. *)

type t = {
  cfg : Config.t;
  set_shift : int; (* log2 line_bytes, to go from addr to line *)
  rep : Replace.t;
  mutable hits : int;
  mutable misses : int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create cfg =
  {
    cfg;
    set_shift = log2 cfg.Config.line_bytes;
    rep = Replace.create ~sets:(Config.sets cfg) ~ways:cfg.Config.associativity;
    hits = 0;
    misses = 0;
  }

let config t = t.cfg

let access_line t line =
  if Replace.access t.rep line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let access t addr = access_line t (addr asr t.set_shift)

let touch_range t ~addr ~len =
  if len <= 0 then 0
  else begin
    let first = addr asr t.set_shift in
    let last = (addr + len - 1) asr t.set_shift in
    let m = Replace.access_range t.rep ~first ~last in
    t.hits <- t.hits + (last - first + 1 - m);
    t.misses <- t.misses + m;
    m
  end

let resident t addr = Replace.probe t.rep (addr asr t.set_shift)

let flush t = Replace.flush t.rep

let occupancy t = Replace.occupancy t.rep

let iter_resident t f = Replace.iter t.rep f

let hits t = t.hits

let misses t = t.misses

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0
