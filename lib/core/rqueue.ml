type 'a t = { mutable buf : 'a array; mutable head : int; mutable len : int }

(* Capacities are powers of two (64, then doubling), so an index wraps
   with a mask instead of a division. *)
let initial_capacity = 64

let create () = { buf = [||]; head = 0; len = 0 }

let length q = q.len

let is_empty q = q.len = 0

let grow q fill =
  let cap = Array.length q.buf in
  let grown = Array.make (Int.max initial_capacity (2 * cap)) fill in
  for k = 0 to q.len - 1 do
    grown.(k) <- q.buf.((q.head + k) land (cap - 1))
  done;
  q.buf <- grown;
  q.head <- 0

let push q x =
  if q.len = Array.length q.buf then grow q x;
  q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- x;
  q.len <- q.len + 1

let pop q =
  if q.len = 0 then invalid_arg "Rqueue.pop: empty";
  let x = q.buf.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  x

let get q k =
  if k < 0 || k >= q.len then invalid_arg "Rqueue.get: out of range";
  q.buf.((q.head + k) land (Array.length q.buf - 1))
