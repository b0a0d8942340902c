let small_size = 128

let cluster_size = 2048

type stats = {
  small_allocs : int;
  cluster_allocs : int;
  small_frees : int;
  cluster_frees : int;
  small_in_use : int;
  cluster_in_use : int;
  peak_small : int;
  peak_cluster : int;
}

(* Each free list holds at most this many buffers. *)
let max_free = 4096

(* One size class: a LIFO free list over an array that grows up to
   [max_free], and the class's counters.  Everything is mutated in
   place, so an alloc/release pair touches no heap at steady state. *)
type cls = {
  size : int;
  mutable free : bytes array;
  mutable nfree : int;
  mutable allocs : int;
  mutable frees : int;
  mutable in_use : int;
  mutable peak : int;
}

type t = { small : cls; cluster : cls }

let cls size =
  { size; free = [||]; nfree = 0; allocs = 0; frees = 0; in_use = 0; peak = 0 }

let create () = { small = cls small_size; cluster = cls cluster_size }

let alloc c =
  c.allocs <- c.allocs + 1;
  c.in_use <- c.in_use + 1;
  if c.in_use > c.peak then c.peak <- c.in_use;
  if c.nfree = 0 then Bytes.create c.size
  else begin
    c.nfree <- c.nfree - 1;
    c.free.(c.nfree)
  end

let release c b =
  c.frees <- c.frees + 1;
  c.in_use <- c.in_use - 1;
  if c.nfree < max_free then begin
    if c.nfree = Array.length c.free then begin
      let grown =
        Array.make (Int.min max_free (Int.max 16 (2 * c.nfree))) Bytes.empty
      in
      Array.blit c.free 0 grown 0 c.nfree;
      c.free <- grown
    end;
    c.free.(c.nfree) <- b;
    c.nfree <- c.nfree + 1
  end

let alloc_small t = alloc t.small

let alloc_cluster t = alloc t.cluster

let release_small t b =
  if Bytes.length b <> small_size then
    invalid_arg "Pool.release_small: wrong buffer size";
  release t.small b

let release_cluster t b =
  if Bytes.length b <> cluster_size then
    invalid_arg "Pool.release_cluster: wrong buffer size";
  release t.cluster b

let stats t =
  {
    small_allocs = t.small.allocs;
    cluster_allocs = t.cluster.allocs;
    small_frees = t.small.frees;
    cluster_frees = t.cluster.frees;
    small_in_use = t.small.in_use;
    cluster_in_use = t.cluster.in_use;
    peak_small = t.small.peak;
    peak_cluster = t.cluster.peak;
  }
