(* Array-based binary min-heap over parallel arrays: keys in a flat float
   array, insertion sequence numbers in an int array, values in a third.
   The sequence number breaks key ties so that equal-time events pop in
   insertion order; without it, heap sift order would depend on internal
   layout and make simulation runs sensitive to unrelated code changes.
   No entry is an OCaml block of its own, and [peek_key]/[pop_min] hand
   the key back through a caller's float cell, so a push and a pop
   allocate nothing once the arrays have grown. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable vals : 'a array;  (* [[||]] until the first push supplies a filler *)
  mutable len : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    keys = Array.make capacity 0.0;
    seqs = Array.make capacity 0;
    vals = [||];
    len = 0;
    next_seq = 0;
  }

let size h = h.len

let is_empty h = h.len = 0

let grow h v =
  let cap = Array.length h.keys in
  if Array.length h.vals = 0 then h.vals <- Array.make cap v
  else if h.len = cap then begin
    let keys = Array.make (2 * cap) 0.0 in
    let seqs = Array.make (2 * cap) 0 in
    let vals = Array.make (2 * cap) v in
    Array.blit h.keys 0 keys 0 cap;
    Array.blit h.seqs 0 seqs 0 cap;
    Array.blit h.vals 0 vals 0 cap;
    h.keys <- keys;
    h.seqs <- seqs;
    h.vals <- vals
  end

(* Does slot [a] come before slot [b]? *)
let earlier h a b =
  let ka = h.keys.(a) and kb = h.keys.(b) in
  ka < kb || (ka = kb && h.seqs.(a) < h.seqs.(b))

let move h ~src ~dst =
  h.keys.(dst) <- h.keys.(src);
  h.seqs.(dst) <- h.seqs.(src);
  h.vals.(dst) <- h.vals.(src)

(* The sifts are loops over a hole, with the moving entry's key in a
   local: passing a float to a (recursive) function would box it. *)
let push h key v =
  grow h v;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = h.keys.(p) in
    if key < kp || (key = kp && seq < h.seqs.(p)) then begin
      move h ~src:p ~dst:!i;
      i := p
    end
    else continue := false
  done;
  h.keys.(!i) <- key;
  h.seqs.(!i) <- seq;
  h.vals.(!i) <- v

let peek_key h cell =
  if h.len = 0 then false
  else begin
    cell.(0) <- h.keys.(0);
    true
  end

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let top = h.vals.(0) in
  let last = h.len - 1 in
  h.len <- last;
  if last > 0 then begin
    (* Sift the last entry down from the root's hole. *)
    let key = h.keys.(last) and seq = h.seqs.(last) and v = h.vals.(last) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let c = if l + 1 < last && earlier h (l + 1) l then l + 1 else l in
        let kc = h.keys.(c) in
        if key < kc || (key = kc && seq < h.seqs.(c)) then continue := false
        else begin
          move h ~src:c ~dst:!i;
          i := c
        end
      end
    done;
    h.keys.(!i) <- key;
    h.seqs.(!i) <- seq;
    h.vals.(!i) <- v
  end;
  top

let clear h =
  h.len <- 0;
  h.vals <- [||]

let to_sorted_list h =
  let copy =
    {
      keys = Array.copy h.keys;
      seqs = Array.copy h.seqs;
      vals = Array.copy h.vals;
      len = h.len;
      next_seq = h.next_seq;
    }
  in
  let cell = [| 0.0 |] in
  let rec drain acc =
    if peek_key copy cell then
      let k = cell.(0) in
      drain ((k, pop_min copy) :: acc)
    else List.rev acc
  in
  drain []
