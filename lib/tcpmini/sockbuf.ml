type t = {
  hiwat : int;
  mutable ring : bytes;  (* [Bytes.empty] until the first append *)
  mutable head : int;  (* ring offset of the first unread byte *)
  mutable len : int;
  mutable wakeups : int;
}

let create ?(hiwat = 16384) () =
  if hiwat <= 0 then invalid_arg "Sockbuf.create: hiwat must be positive";
  { hiwat; ring = Bytes.empty; head = 0; len = 0; wakeups = 0 }

let hiwat t = t.hiwat

let length t = t.len

let space t = Int.max 0 (t.hiwat - t.len)

let wakeups t = t.wakeups

(* A connection that only ever holds small messages keeps a small ring:
   thousands of idle connections must not each pin [hiwat] bytes. *)
let min_ring = 64

(* Copy the [n] oldest unread bytes, in order, to the front of [dst]. *)
let copy_front t dst n =
  let first = Int.min n (Bytes.length t.ring - t.head) in
  Bytes.blit t.ring t.head dst 0 first;
  Bytes.blit t.ring 0 dst first (n - first)

(* Grow the ring, doubling up to [hiwat], until [n] more bytes fit. *)
let reserve t n =
  let need = t.len + n in
  if need > Bytes.length t.ring then begin
    let cap = ref (Int.max min_ring (Bytes.length t.ring)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let ring = Bytes.create (Int.min t.hiwat !cap) in
    copy_front t ring t.len;
    t.ring <- ring;
    t.head <- 0
  end

let append_mbuf t m ~pos ~len =
  let accept = Int.min len (space t) in
  if accept > 0 then begin
    if t.len = 0 then begin
      t.wakeups <- t.wakeups + 1;
      t.head <- 0
    end;
    reserve t accept;
    let cap = Bytes.length t.ring in
    let tail = t.head + t.len in
    let tail = if tail >= cap then tail - cap else tail in
    let first = Int.min accept (cap - tail) in
    Ldlp_buf.Mbuf.blit_to_bytes m ~pos t.ring ~dst_off:tail ~len:first;
    Ldlp_buf.Mbuf.blit_to_bytes m ~pos:(pos + first) t.ring ~dst_off:0
      ~len:(accept - first);
    t.len <- t.len + accept
  end;
  accept

let read t n =
  let n = Int.min n t.len in
  let out = Bytes.create n in
  copy_front t out n;
  let head = t.head + n in
  t.head <- (if head >= Bytes.length t.ring then head - Bytes.length t.ring else head);
  t.len <- t.len - n;
  out

let read_all t = read t t.len
