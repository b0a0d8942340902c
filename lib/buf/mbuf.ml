type t = {
  mutable data : bytes;
  mutable off : int;
  mutable len : int;
  mutable next : t option;
  mutable cluster : bool;
}

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* Size of an mbuf's internal data area, as in 4.4BSD. *)
let msize = 128

(* Spare leading space reserved in a fresh small mbuf so protocol layers can
   prepend headers without allocating (4.4BSD reserves max_linkhdr +
   max_protohdr similarly). *)
let lead_space = 64

let get pool =
  {
    data = Pool.alloc_small pool;
    off = lead_space;
    len = 0;
    next = None;
    cluster = false;
  }

let get_cluster pool =
  {
    data = Pool.alloc_cluster pool;
    off = 0;
    len = 0;
    next = None;
    cluster = true;
  }

let release pool m =
  if m.cluster then Pool.release_cluster pool m.data
  else Pool.release_small pool m.data

(* Toplevel recursion rather than a local [go] capturing [pool]: freeing a
   chain runs once per message and should not allocate a closure. *)
let rec free pool m =
  let next = m.next in
  m.next <- None;
  release pool m;
  match next with None -> () | Some n -> free pool n

let capacity m = Bytes.length m.data

let trailing_space m = capacity m - m.off - m.len

let contiguous m n = m.len >= n

let seg_data m = m.data

let seg_off m = m.off

(* [length_from], [get_byte_from] and [trim_front] recurse on the segment
   itself rather than on a [Some m] wrapper: receive paths call them
   several times per message, and they should allocate nothing. *)
let rec length_from acc m =
  match m.next with None -> acc + m.len | Some n -> length_from (acc + m.len) n

let length m = length_from 0 m

let nsegs m =
  let rec go acc = function None -> acc | Some m -> go (acc + 1) m.next in
  go 0 (Some m)

let rec fold_segments m f acc =
  let acc = if m.len > 0 then f acc m.data m.off m.len else acc in
  match m.next with None -> acc | Some n -> fold_segments n f acc

let last m =
  let rec go m = match m.next with None -> m | Some n -> go n in
  go m

let append_bytes pool m b =
  let total = Bytes.length b in
  let pos = ref 0 in
  let tail = ref (last m) in
  while !pos < total do
    let space = trailing_space !tail in
    if space > 0 then begin
      let n = Int.min space (total - !pos) in
      Bytes.blit b !pos !tail.data (!tail.off + !tail.len) n;
      !tail.len <- !tail.len + n;
      pos := !pos + n
    end
    else begin
      let fresh =
        if total - !pos > msize then get_cluster pool
        else begin
          let f = get pool in
          (* A continuation mbuf never needs leading space. *)
          f.off <- 0;
          f
        end
      in
      !tail.next <- Some fresh;
      tail := fresh
    end
  done

let of_bytes pool b =
  let head = get pool in
  append_bytes pool head b;
  head

let of_string pool s = of_bytes pool (Bytes.of_string s)

let rec get_byte_from m pos =
  if pos < m.len then Char.code (Bytes.get m.data (m.off + pos))
  else
    match m.next with
    | None -> invalid "get_byte: offset beyond end"
    | Some n -> get_byte_from n (pos - m.len)

let get_byte m pos =
  if pos < 0 then invalid "get_byte: negative offset %d" pos;
  get_byte_from m pos

let prepend m n =
  if n < 0 then invalid "prepend: negative length %d" n;
  if m.off >= n then begin
    m.off <- m.off - n;
    m.len <- m.len + n;
    m
  end
  else invalid "prepend: no leading space for %d bytes (have %d)" n m.off

let rec trim_front m n =
  let take = Int.min n m.len in
  m.off <- m.off + take;
  m.len <- m.len - take;
  let n = n - take in
  if n > 0 then
    match m.next with
    | None -> invalid "adj: trim %d beyond length" n
    | Some next -> trim_front next n

let adj m n =
  if n >= 0 then trim_front m n
  else begin
    (* Trim from back. *)
    let n = -n in
    let total = length m in
    if n > total then invalid "adj: trim %d beyond length %d" n total;
    let keep = total - n in
    let rec go remaining = function
      | None -> ()
      | Some m ->
        if remaining >= m.len then go (remaining - m.len) m.next
        else begin
          m.len <- remaining;
          (* Everything after this segment is logically empty. *)
          let rec zero = function
            | None -> ()
            | Some m ->
              m.len <- 0;
              zero m.next
          in
          zero m.next
        end
    in
    go keep (Some m)
  end

(* [blit_from] and [copy_to] walk the chain by toplevel recursion on the
   segment itself: every received segment's socket-buffer fill and every
   header write goes through them, and a local [go] over [Some m] would
   allocate a closure and an option per call. *)
let rec blit_from m pos dst dst_off len =
  if pos >= m.len then begin
    match m.next with
    | Some n -> blit_from n (pos - m.len) dst dst_off len
    | None -> invalid "blit_to_bytes: range beyond end"
  end
  else begin
    let n = Int.min len (m.len - pos) in
    Bytes.blit m.data (m.off + pos) dst dst_off n;
    if len - n > 0 then
      match m.next with
      | Some next -> blit_from next 0 dst (dst_off + n) (len - n)
      | None -> invalid "blit_to_bytes: range beyond end"
  end

let blit_to_bytes m ~pos dst ~dst_off ~len =
  if pos < 0 || len < 0 then invalid "blit_to_bytes: bad range";
  if len > 0 then blit_from m pos dst dst_off len

let copy_out m ~pos ~len =
  let out = Bytes.create len in
  blit_to_bytes m ~pos out ~dst_off:0 ~len;
  out

let to_bytes m = copy_out m ~pos:0 ~len:(length m)

let rec copy_to m pos src src_off len =
  if pos >= m.len then begin
    match m.next with
    | Some n -> copy_to n (pos - m.len) src src_off len
    | None -> invalid "copy_into: range beyond end"
  end
  else begin
    let n = Int.min len (m.len - pos) in
    Bytes.blit src src_off m.data (m.off + pos) n;
    if len - n > 0 then
      match m.next with
      | Some next -> copy_to next 0 src (src_off + n) (len - n)
      | None -> invalid "copy_into: range beyond end"
  end

let copy_into m ~pos src ~src_off ~len =
  if pos < 0 || len < 0 then invalid "copy_into: bad range";
  if len > 0 then copy_to m pos src src_off len

let pullup pool m n =
  if n < 0 || n > msize then invalid "pullup: %d out of range" n;
  if n > length m then invalid "pullup: %d beyond length %d" n (length m);
  if m.len >= n then m
  else begin
    let head = get pool in
    head.off <- 0;
    blit_to_bytes m ~pos:0 head.data ~dst_off:0 ~len:n;
    head.len <- n;
    (* Drop the consumed prefix from the old chain and free empty leaders. *)
    adj m n;
    let rec skip_empty = function
      | Some seg when seg.len = 0 ->
        let next = seg.next in
        seg.next <- None;
        release pool seg;
        skip_empty next
      | rest -> rest
    in
    head.next <- skip_empty (Some m);
    head
  end

let split pool m n =
  let total = length m in
  if n < 0 || n > total then invalid "split: %d out of range (length %d)" n total;
  let back_len = total - n in
  let back =
    if back_len = 0 then begin
      let b = get pool in
      b
    end
    else begin
      let data = copy_out m ~pos:n ~len:back_len in
      of_bytes pool data
    end
  in
  (* Truncate the front chain in place and free now-empty trailing mbufs. *)
  adj m (-back_len);
  let rec drop_empty_tail m =
    match m.next with
    | None -> ()
    | Some seg when length seg = 0 ->
      m.next <- None;
      free pool seg
    | Some seg -> drop_empty_tail seg
  in
  if n > 0 then drop_empty_tail m;
  (m, back)

let concat a b =
  (last a).next <- Some b;
  a
