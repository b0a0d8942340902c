type t = { mutable samples : int array; mutable n : int }

let create cap = { samples = Array.make (max 16 cap) 0; n = 0 }

let add t ns =
  if t.n = Array.length t.samples then begin
    let bigger = Array.make (2 * t.n) 0 in
    Array.blit t.samples 0 bigger 0 t.n;
    t.samples <- bigger
  end;
  Array.unsafe_set t.samples t.n ns;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let a = Array.sub t.samples 0 t.n in
  Array.sort Int.compare a;
  a

let rank n ~permille =
  if permille < 1 || permille > 1000 then invalid_arg "Lat: permille outside [1, 1000]";
  (* ceil (permille * n / 1000), in exact integer arithmetic *)
  ((permille * n) + 999) / 1000

let percentile a ~permille =
  let n = Array.length a in
  if n = 0 then invalid_arg "Lat.percentile: no samples";
  a.(rank n ~permille - 1)

let quantile values ~permille =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(rank n ~permille - 1)

let median values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Lat.quartiles: need two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)
