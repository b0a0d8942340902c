let counts ~bin ~horizon packets =
  if bin <= 0.0 || horizon <= 0.0 then invalid_arg "Hurst.counts: bad bins";
  let n = int_of_float (ceil (horizon /. bin)) in
  let c = Array.make n 0.0 in
  List.iter
    (fun p ->
      let open Source in
      if p.at >= 0.0 && p.at < horizon then begin
        let i = int_of_float (p.at /. bin) in
        if i < n then c.(i) <- c.(i) +. 1.0
      end)
    packets;
  c

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 a in
    sq /. float_of_int (n - 1)
  end

let aggregate a m =
  let n = Array.length a / m in
  Array.init n (fun i ->
      let sum = ref 0.0 in
      for j = 0 to m - 1 do
        sum := !sum +. a.((i * m) + j)
      done;
      !sum /. float_of_int m)

(* Needs a few hundred samples for a stable answer. *)
let estimate ?(min_blocks = 8) series =
  let n = Array.length series in
  if n < min_blocks * 2 then invalid_arg "Hurst.estimate: series too short";
  (* Block sizes m = 1, 2, 4, ... while enough aggregated samples remain. *)
  let points = ref [] in
  let m = ref 1 in
  while n / !m >= min_blocks do
    let v = variance (aggregate series !m) in
    if v > 0.0 then points := (log (float_of_int !m), log v) :: !points;
    m := !m * 2
  done;
  match !points with
  | [] | [ _ ] -> 0.5
  | pts ->
    (* Least-squares slope of log Var vs log m; H = 1 + slope / 2. *)
    let n = float_of_int (List.length pts) in
    let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts in
    let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
    let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 pts in
    let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 pts in
    let slope = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
    let h = 1.0 +. (slope /. 2.0) in
    Float.max 0.0 (Float.min 1.0 h)

let of_packets ~bin ~horizon packets =
  estimate (counts ~bin ~horizon packets)
