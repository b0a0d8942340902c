type t = { mutable data : Event.t array; mutable len : int }

let create () = { data = [||]; len = 0 }

let add t e =
  let cap = Array.length t.data in
  if t.len >= cap then begin
    let ncap = if cap = 0 then 1024 else cap * 2 in
    let nd = Array.make ncap e in
    Array.blit t.data 0 nd 0 t.len;
    t.data <- nd
  end;
  t.data.(t.len) <- e;
  t.len <- t.len + 1

let length t = t.len

let iter t f =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
