type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

let initial_capacity = 64

let create () = { buf = [||]; head = 0; len = 0 }

let length q = q.len

let is_empty q = q.len = 0

let grow q fill =
  let cap = Array.length q.buf in
  let grown = Array.make (Int.max initial_capacity (2 * cap)) fill in
  for k = 0 to q.len - 1 do
    grown.(k) <- q.buf.((q.head + k) mod cap)
  done;
  q.buf <- grown;
  q.head <- 0

let push q x =
  if q.len = Array.length q.buf then grow q x;
  q.buf.((q.head + q.len) mod Array.length q.buf) <- x;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then invalid_arg "Rqueue.pop: empty";
  let x = q.buf.(q.head) in
  q.head <- (q.head + 1) mod Array.length q.buf;
  q.len <- q.len - 1;
  x

let get q k =
  if k < 0 || k >= q.len then invalid_arg "Rqueue.get: out of range";
  q.buf.((q.head + k) mod Array.length q.buf)
