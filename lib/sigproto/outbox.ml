type kind =
  | Frame
  | Link_up
  | Link_down
  | Call_offered
  | Call_connected
  | Call_released
  | Call_failed

(* Entry [i] is slot [i] of every column; slots from [top] up are free,
   their byte and reason slots cleared so that a dropped frame is garbage
   at once. *)
type t = {
  mutable kinds : kind array;
  mutable refs : int array;
  mutable datas : bytes array;
  mutable poss : int array;
  mutable reasons : string array;
  mutable top : int;
}

let create () =
  { kinds = [||]; refs = [||]; datas = [||]; poss = [||]; reasons = [||]; top = 0 }

let top t = t.top

let check t i = if i < 0 || i >= t.top then invalid_arg "Outbox: no such entry"

let kind t i =
  check t i;
  Array.unsafe_get t.kinds i

let data t i =
  check t i;
  Array.unsafe_get t.datas i

let pos t i =
  check t i;
  Array.unsafe_get t.poss i

let call_ref t i =
  check t i;
  Array.unsafe_get t.refs i

let reason t i =
  check t i;
  Array.unsafe_get t.reasons i

let drop t mark =
  if mark < 0 || mark > t.top then invalid_arg "Outbox.drop: mark above the top";
  for i = mark to t.top - 1 do
    t.datas.(i) <- Bytes.empty;
    t.reasons.(i) <- ""
  done;
  t.top <- mark

(* When the columns are full they double (from 16). *)
let grow t =
  let n = Array.length t.kinds in
  let m = Int.max 16 (2 * n) in
  let extend a fill =
    let b = Array.make m fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.kinds <- extend t.kinds Frame;
  t.refs <- extend t.refs 0;
  t.datas <- extend t.datas Bytes.empty;
  t.poss <- extend t.poss 0;
  t.reasons <- extend t.reasons ""

let add t kind ~call_ref buf pos reason =
  if t.top = Array.length t.kinds then grow t;
  let i = t.top in
  t.kinds.(i) <- kind;
  t.refs.(i) <- call_ref;
  t.datas.(i) <- buf;
  t.poss.(i) <- pos;
  t.reasons.(i) <- reason;
  t.top <- i + 1

let add_frame t f = add t Frame ~call_ref:0 f 0 ""

let add_event t kind ~call_ref reason = add t kind ~call_ref Bytes.empty 0 reason

let add_offer t ~call_ref buf pos = add t Call_offered ~call_ref buf pos ""
