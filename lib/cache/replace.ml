(* Direct-mapped tables (the paper's machine) keep their tags as runs of
   consecutive sets whose tags share a high part: run [r] covers sets
   [starts.(r)] to [starts.(r + 1) - 1], and the tag of set [s] in it is
   [highs.(r) + s], or no tag at all when [highs.(r) = -1].  A valid high
   part is a key less its set, a multiple of [sets], so it is never -1.
   [starts.(runs) = sets] closes the last run, and no two adjacent runs
   share a high part, so the runs are a function of the tags.  Every range
   the simulator references (a layer's code, its data, a message buffer) is
   consecutive keys, which land on consecutive sets under one high part, so
   a range costs one splice per run it overlaps, not one step per line.

   Associative tables keep their tags per way as key values (-1 =
   invalid), each set in LRU order: way 0 is most recently used; eviction
   takes the last way.

   This module is the one replacement engine behind both the cache
   simulator ([Cache], keys = line numbers) and the flow study's modeled
   front cache ([Ldlp_flowtable.Study], keys = slot hashes), so the
   differential oracle over [Cache] exercises the same code the study
   counts D-misses with. *)

type t = {
  sets : int;
  ways : int;
  mask : int; (* sets - 1 *)
  tags : int array; (* associative: sets * ways, row-major, LRU-ordered *)
  starts : int array; (* direct-mapped: sets + 1 run starts *)
  highs : int array; (* direct-mapped: each run's high part, -1 = invalid *)
  mutable runs : int;
  mutable filled : int;
  mutable evictions : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let clear_runs t =
  t.runs <- 1;
  t.starts.(0) <- 0;
  t.starts.(1) <- t.sets;
  t.highs.(0) <- -1

let create ~sets ~ways =
  if not (is_pow2 sets) then
    invalid_arg "Replace.create: sets must be a power of two";
  if ways < 1 then invalid_arg "Replace.create: ways must be >= 1";
  let direct = ways = 1 in
  let t =
    {
      sets;
      ways;
      mask = sets - 1;
      tags = (if direct then [||] else Array.make (sets * ways) (-1));
      starts = (if direct then Array.make (sets + 1) 0 else [||]);
      highs = (if direct then Array.make (sets + 1) 0 else [||]);
      runs = 0;
      filled = 0;
      evictions = 0;
    }
  in
  if direct then clear_runs t;
  t

(* The run holding set [s]: the last of [starts.(0 .. runs - 1)] that is at
   most [s].  Branch-free, since which half holds it is as good as random:
   halve a window that holds the answer.  The window stays inside
   [0, runs), so the reads need no bounds check. *)
let find_run (starts : int array) runs (s : int) =
  let base = ref 0 and n = ref runs in
  while !n > 1 do
    let half = !n lsr 1 in
    let below = Array.unsafe_get starts (!base + half) <= s in
    base := !base + (half * Bool.to_int below);
    n := !n - half
  done;
  !base

(* Give sets [a, b) (0 <= a < b <= sets) the tags [high + s] and return how
   many of them missed: those whose run had another high part, counted as
   evictions where that run was valid and as fills where it was not.  The
   overlapped runs become one, merged with a neighbour that shares [high],
   plus what is left of the first and last of them outside [a, b). *)
let splice t a b high =
  let starts = t.starts and highs = t.highs and runs = t.runs in
  let i = find_run starts runs a in
  (* Sum the overlapped runs' misses and fills; [j] ends at the run holding
     set [b - 1].  Runs [i .. j] lie in [0, runs), and [starts] has
     [runs + 1] live entries, so the reads need no bounds check. *)
  let j = ref i and lo = ref a and misses = ref 0 and fills = ref 0 in
  let more = ref true in
  while !more do
    let e = Array.unsafe_get starts (!j + 1) in
    let n = Int.min e b - !lo and h = Array.unsafe_get highs !j in
    misses := !misses + (n * Bool.to_int (h <> high));
    fills := !fills + (n * Bool.to_int (h < 0));
    if e < b then begin
      lo := e;
      incr j
    end
    else more := false
  done;
  (* No miss means one run already holds [a, b) under [high]: adjacent runs
     never share a high part. *)
  if !misses > 0 then begin
    let j = !j in
    let end_j = starts.(j + 1) and h_j = highs.(j) in
    (* Runs [first .. last] give way to [left], what is left of run [i]
       before [a], then the new run from [start], then [right], what is
       left of run [j] from [b].  A part left over under [high] joins the
       new run, and so does a whole neighbour under [high]. *)
    let left = starts.(i) < a && highs.(i) <> high
    and right = end_j > b && h_j <> high in
    let first =
      if starts.(i) = a && i > 0 && highs.(i - 1) = high then i - 1 else i
    and last =
      if end_j = b && j + 1 < runs && highs.(j + 1) = high then j + 1 else j
    in
    let start = if left then a else starts.(first) in
    let shift =
      Bool.to_int left + 1 + Bool.to_int right - (last - first + 1)
    in
    (* Move runs [last + 1 ..] and the closing start by [shift].  A loop,
       not [Array.blit]: a blit of a major-heap array runs the write barrier
       on every element.  Both ends stay within the [runs + 1] and
       [runs + shift + 1] live entries, at most [sets + 1], so the moves
       need no bounds check. *)
    if shift > 0 then
      for k = runs downto last + 1 do
        Array.unsafe_set starts (k + shift) (Array.unsafe_get starts k);
        Array.unsafe_set highs (k + shift) (Array.unsafe_get highs k)
      done
    else if shift < 0 then
      for k = last + 1 to runs do
        Array.unsafe_set starts (k + shift) (Array.unsafe_get starts k);
        Array.unsafe_set highs (k + shift) (Array.unsafe_get highs k)
      done;
    let p = first + Bool.to_int left in
    starts.(p) <- start;
    highs.(p) <- high;
    if right then begin
      starts.(p + 1) <- b;
      highs.(p + 1) <- h_j
    end;
    t.runs <- runs + shift;
    t.filled <- t.filled + !fills;
    t.evictions <- t.evictions + !misses - !fills
  end;
  !misses

(* Consecutive keys [first .. last], at most [sets] of them: one splice, or
   two where the sets wrap.  The keys land on distinct sets, so each one's
   outcome depends only on the tag its set held before the range. *)
let splice_lap t ~first ~last =
  let a = first land t.mask in
  let high = first - a and b = a + last - first + 1 in
  if b <= t.sets then splice t a b high
  else splice t a t.sets high + splice t 0 (b - t.sets) (high + t.sets)

let access t key =
  let set = key land t.mask in
  if t.ways = 1 then splice_lap t ~first:key ~last:key = 0
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

(* Direct-mapped: a range of more than [sets] keys is its first lap, which
   fills or evicts from the state before it, then one eviction per later
   key, each of the key a lap before it on the same set.  It leaves the
   last [sets] keys: from set [a] up under [high], and the sets below [a]
   under the next high part.  Associative: per-key [access]. *)
let access_range t ~first ~last =
  if t.ways = 1 then begin
    let sets = t.sets in
    if last - first < sets then
      if last < first then 0 else splice_lap t ~first ~last
    else begin
      let m = splice_lap t ~first ~last:(first + sets - 1) in
      let later = last - first + 1 - sets in
      let a = (last + 1) land t.mask in
      let high = last + 1 - sets - a in
      if a = 0 then begin
        t.runs <- 1;
        t.highs.(0) <- high
      end
      else begin
        t.runs <- 2;
        t.starts.(1) <- a;
        t.highs.(0) <- high + sets;
        t.highs.(1) <- high
      end;
      t.starts.(0) <- 0;
      t.starts.(t.runs) <- sets;
      t.evictions <- t.evictions + later;
      m + later
    end
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
  if t.ways = 1 then t.highs.(find_run t.starts t.runs set) = key - set
  else begin
    let base = set * t.ways in
    let rec find i =
      if i >= t.ways then false
      else t.tags.(base + i) = key || find (i + 1)
    in
    find 0
  end

let flush t =
  if t.ways = 1 then clear_runs t
  else Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.filled <- 0

let occupancy t = t.filled

let evictions t = t.evictions

let iter t f =
  if t.ways = 1 then
    for r = 0 to t.runs - 1 do
      let high = t.highs.(r) in
      if high >= 0 then
        for s = t.starts.(r) to t.starts.(r + 1) - 1 do
          f (high + s)
        done
    done
  else Array.iter (fun tag -> if tag >= 0 then f tag) t.tags
