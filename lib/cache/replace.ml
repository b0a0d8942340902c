(* Tags are stored per way as key values (-1 = invalid).  For the
   direct-mapped case (the paper's machine) the hot path is a single array
   compare-and-store.  For associative sets each set keeps its ways in LRU
   order: way 0 is most recently used; eviction takes the last way.

   This module is the one replacement engine behind both the cache
   simulator ([Cache], keys = line numbers) and the flow study's modeled
   front cache ([Ldlp_flowtable.Study], keys = slot hashes), so the
   differential oracle over [Cache] exercises the same code the study
   counts D-misses with. *)

type t = {
  sets : int;
  ways : int;
  mask : int; (* sets - 1 *)
  tags : int array; (* sets * ways, row-major, LRU-ordered within a set *)
  mutable filled : int;
  mutable evictions : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~sets ~ways =
  if not (is_pow2 sets) then
    invalid_arg "Replace.create: sets must be a power of two";
  if ways < 1 then invalid_arg "Replace.create: ways must be >= 1";
  {
    sets;
    ways;
    mask = sets - 1;
    tags = Array.make (sets * ways) (-1);
    filled = 0;
    evictions = 0;
  }

let access t key =
  let set = key land t.mask in
  if t.ways = 1 then begin
    let old = t.tags.(set) in
    if old = key then true
    else begin
      t.tags.(set) <- key;
      if old >= 0 then t.evictions <- t.evictions + 1
      else t.filled <- t.filled + 1;
      false
    end
  end
  else begin
    let base = set * t.ways in
    let rec find i =
      if i >= t.ways then -1
      else if t.tags.(base + i) = key then i
      else find (i + 1)
    in
    let i = find 0 in
    if i >= 0 then begin
      (* Hit in way [i]: rotate ways [0..i] so [key] lands at the MRU
         position.  For [i = 0] the rotation is empty — an MRU hit costs
         no tag traffic, with no special case. *)
      for j = i downto 1 do
        t.tags.(base + j) <- t.tags.(base + j - 1)
      done;
      if i > 0 then t.tags.(base) <- key;
      true
    end
    else begin
      (* Miss: shift everything down, install at MRU position. *)
      let victim = t.tags.(base + t.ways - 1) in
      for j = t.ways - 1 downto 1 do
        t.tags.(base + j) <- t.tags.(base + j - 1)
      done;
      t.tags.(base) <- key;
      if victim >= 0 then t.evictions <- t.evictions + 1
      else t.filled <- t.filled + 1;
      false
    end
  end

(* A run of consecutive keys.  Direct-mapped: one pass over the tag array
   with the counters held in locals and folded into [t] once per run.  The
   keys are distinct, so a key later in the run can only evict an earlier
   one by landing on its set (a run longer than [sets] wraps), and the
   in-order tag writes replay exactly what per-key [access] would do.
   [key land mask] is always a valid set index, so the tag reads and
   writes need no bounds check. *)
let access_range t ~first ~last =
  if t.ways = 1 then begin
    let tags = t.tags and mask = t.mask in
    let misses = ref 0 and evicted = ref 0 in
    for key = first to last do
      let set = key land mask in
      let old = Array.unsafe_get tags set in
      if old <> key then begin
        Array.unsafe_set tags set key;
        incr misses;
        if old >= 0 then incr evicted
      end
    done;
    t.evictions <- t.evictions + !evicted;
    t.filled <- t.filled + !misses - !evicted;
    !misses
  end
  else begin
    let misses = ref 0 in
    for key = first to last do
      if not (access t key) then incr misses
    done;
    !misses
  end

let probe t key =
  let set = key land t.mask in
  let base = set * t.ways in
  let rec find i =
    if i >= t.ways then false
    else t.tags.(base + i) = key || find (i + 1)
  in
  find 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.filled <- 0

let occupancy t = t.filled

let evictions t = t.evictions

let iter t f = Array.iter (fun tag -> if tag >= 0 then f tag) t.tags
