(* xoshiro256++ (Blackman & Vigna) with splitmix64 seeding.

   The four 64-bit state words live unboxed in one 32-byte buffer and are
   read and written with the bytes primitives, so a draw works on
   untagged int64 locals and allocates nothing: a record of [mutable
   int64] fields would box a fresh int64 on every store (three words
   each, four stores and the result per draw).  [next] must stay inlined
   into each drawing function, or its int64 result would be boxed on
   return. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix x =
  let st = ref x in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t (8 * i) (splitmix64 st)
  done;
  t

let create ~seed = of_splitmix (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set t 0 s0;
  set t 8 s1;
  set t 16 (logxor s2 tmp);
  set t 24 (rotl s3 45);
  result

let int64 t = next t

let split t = of_splitmix (next t)

let mask53 = 0x1FFFFFFFFFFFFFL

let[@inline] unit_float t =
  Int64.to_float (Int64.logand (next t) mask53) /. 9007199254740992.0

let float t bound = unit_float t *. bound

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: bias is < 2^-40 for bounds < 2^23. *)
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

let bool t p = unit_float t < p

let exponential t ~mean =
  let u = 1.0 -. unit_float t in
  -.mean *. log u

let pareto t ~shape ~scale =
  let u = 1.0 -. unit_float t in
  scale /. (u ** (1.0 /. shape))

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p out of (0,1]";
  if p = 1.0 then 1
  else
    let u = 1.0 -. unit_float t in
    1 + int_of_float (log u /. log (1.0 -. p))

let shuffle t (a : int array) =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
