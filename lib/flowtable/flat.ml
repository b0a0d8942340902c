type t = {
  mutable keys : int array;  (* [empty] marks a free slot *)
  mutable vals : int array;
  mutable mask : int;  (* slots - 1 *)
  mutable shift : int;  (* 63 - log2 slots *)
  mutable count : int;
}

let empty = -1

(* Fibonacci hashing: multiply by 2^63 / golden ratio (made odd) and keep
   the product's top bits.  Bit i of a product depends only on the key's
   bits 0..i, so the low bits would ignore the key's high bits: masking
   them, even after xoring in a shifted copy, sends keys that differ only
   above bit 48 to one home slot.  The top bits depend on every bit. *)
let golden = 0x4F1BBCDCBFA53E0B

let home t k = (k * golden) lsr t.shift

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let make slots =
  {
    keys = Array.make slots empty;
    vals = Array.make slots 0;
    mask = slots - 1;
    shift = 63 - log2 slots;
    count = 0;
  }

let create () = make 64

let length t = t.count

let slots t = t.mask + 1

let value t slot = t.vals.(slot)

(* The slot holding [k], or the empty slot that ends its probe. *)
let rec probe keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = empty then i else probe keys mask k ((i + 1) land mask)

let find t k =
  let i = probe t.keys t.mask k (home t k) in
  if Array.unsafe_get t.keys i = empty then -1 else i

let rec grow t =
  let keys = t.keys and vals = t.vals in
  let g = make (2 * Array.length keys) in
  t.keys <- g.keys;
  t.vals <- g.vals;
  t.mask <- g.mask;
  t.shift <- g.shift;
  t.count <- 0;
  Array.iteri (fun i k -> if k <> empty then add t k vals.(i)) keys

and add t k v =
  if k < 0 then invalid_arg "Flat.add: negative key";
  let i = probe t.keys t.mask k (home t k) in
  if t.keys.(i) = k then t.vals.(i) <- v
  else if 2 * (t.count + 1) > t.mask + 1 then begin
    grow t;
    add t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.count <- t.count + 1
  end

(* [hole] has just been emptied.  Walk the rest of its cluster and move
   back every entry whose home does not lie cyclically in (hole, j]: a
   probe for it passes [hole] before reaching [j], so it would stop at
   the gap. *)
let rec close_gap t hole j =
  let x = t.keys.(j) in
  if x = empty then t.keys.(hole) <- empty
  else if (j - home t x) land t.mask >= (j - hole) land t.mask then begin
    t.keys.(hole) <- x;
    t.vals.(hole) <- t.vals.(j);
    close_gap t j ((j + 1) land t.mask)
  end
  else close_gap t hole ((j + 1) land t.mask)

let remove t k =
  let i = find t k in
  if i >= 0 then begin
    t.count <- t.count - 1;
    close_gap t i ((i + 1) land t.mask)
  end
