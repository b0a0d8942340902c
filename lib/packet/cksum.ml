let code_bytes_simple = 288

let code_bytes_unrolled = 992

let check_range buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Cksum: range out of bounds"

let fold16 sum =
  let s = ref sum in
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  !s

let swap16 v = ((v land 0xFF) lsl 8) lor (v lsr 8)

(* Each 16-bit word is read with one native-endian load.  On a
   little-endian host that load sees the network-order word byte-swapped,
   and ones-complement sums commute with byte swapping (RFC 1071 §2(B)):
   the swapped words are summed as they are and the folded sum is swapped
   once at the end.  A trailing odd byte is the high byte of a
   network-order word, so it goes into the low byte of a swapped one.  On
   a big-endian host the loads are network order and nothing is swapped.
   The result is therefore the network-order sum itself (big-endian) or
   its fold (little-endian); [finish] gives the same checksum for both,
   alone or added to other partial sums. *)
external word : bytes -> int -> int = "%caml_bytes_get16u"

let odd_byte buf i =
  let b = Char.code (Bytes.unsafe_get buf i) in
  if Sys.big_endian then b lsl 8 else b

let settle sum = if Sys.big_endian then sum else swap16 (fold16 sum)

let partial buf off len =
  check_range buf off len;
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + word buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + odd_byte buf !i;
  settle !sum

let finish sum = lnot (fold16 sum) land 0xFFFF

let simple buf off len = finish (partial buf off len)

(* The "elaborate" routine: 16 words (32 bytes) per iteration, then an
   8-byte loop, then the tail — structurally like 4.4BSD in_cksum, whose
   unrolling is exactly what inflates its code footprint. *)
let unrolled_partial buf off len =
  check_range buf off len;
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while stop - !i >= 32 do
    let k = !i in
    sum :=
      !sum + word buf k + word buf (k + 2) + word buf (k + 4) + word buf (k + 6)
      + word buf (k + 8) + word buf (k + 10) + word buf (k + 12) + word buf (k + 14)
      + word buf (k + 16) + word buf (k + 18) + word buf (k + 20) + word buf (k + 22)
      + word buf (k + 24) + word buf (k + 26) + word buf (k + 28) + word buf (k + 30);
    i := !i + 32
  done;
  while stop - !i >= 8 do
    let k = !i in
    sum := !sum + word buf k + word buf (k + 2) + word buf (k + 4) + word buf (k + 6);
    i := !i + 8
  done;
  while !i + 1 < stop do
    sum := !sum + word buf !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + odd_byte buf !i;
  settle !sum

let unrolled buf off len = finish (unrolled_partial buf off len)

(* Chain checksum: ones-complement sums commute with byte swapping, so a
   segment starting at an odd payload offset is summed normally and its
   folded contribution swapped — the classic 4.4BSD trick for odd-length
   mbufs.  The fold state is one immediate int, the running sum shifted
   left once with the odd-offset flag in bit 0, and the two per-segment
   steps are toplevel functions, so checksumming a chain allocates
   nothing. *)
let step part acc len =
  let part = fold16 part in
  let odd = acc land 1 in
  let part = if odd = 1 then swap16 part else part in
  (((acc lsr 1) + part) lsl 1) lor (odd lxor (len land 1))

let simple_step acc data off len = step (partial data off len) acc len

let unrolled_step acc data off len = step (unrolled_partial data off len) acc len

let simple_chain m = finish (Ldlp_buf.Mbuf.fold_segments m simple_step 0 lsr 1)

let unrolled_chain m = finish (Ldlp_buf.Mbuf.fold_segments m unrolled_step 0 lsr 1)
