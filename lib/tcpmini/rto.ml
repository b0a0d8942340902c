type t = {
  mutable srtt : float;  (* seconds; negative = no sample yet *)
  mutable rttvar : float;
  mutable shift : int;  (* backoff exponent *)
}

let initial_rto = 1.0

let min_rto = 0.2

let max_rto = 60.0

let create () = { srtt = -1.0; rttvar = 0.0; shift = 0 }

let observe t sample =
  if sample >= 0.0 then
    if t.srtt < 0.0 then begin
      t.srtt <- sample;
      t.rttvar <- sample /. 2.0
    end
    else begin
      let err = sample -. t.srtt in
      t.srtt <- t.srtt +. (0.125 *. err);
      t.rttvar <- t.rttvar +. (0.25 *. (Float.abs err -. t.rttvar))
    end

let srtt t = if t.srtt < 0.0 then None else Some t.srtt

let rto t =
  let base =
    if t.srtt < 0.0 then initial_rto
    else Float.max min_rto (t.srtt +. (4.0 *. t.rttvar))
  in
  Float.min max_rto (base *. float_of_int (1 lsl Int.min t.shift 16))

let backoff t = t.shift <- Int.min (t.shift + 1) 16

let backoff_count t = t.shift

let reset_backoff t = t.shift <- 0
