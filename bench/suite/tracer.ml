let max_depth = 32

type t = {
  names : string array;
  self_ns : int array;
  self_words : float array;
  count : int array;
  (* The stack of open spans. *)
  st_name : int array;
  st_start : int array;
  st_child_ns : int array;
  st_words : float array;
  st_child_words : float array;
  st_slot : int array;
  mutable depth : int;
  (* Stored spans. *)
  ev_name : int array;
  ev_start : int array;
  ev_end : int array;
  ev_parent : int array;
  ev_op : int array;
  ev_tid : int array;
  mutable nev : int;
}

let create ~names ~capacity =
  let n = Array.length names in
  {
    names;
    self_ns = Array.make n 0;
    self_words = Array.make n 0.;
    count = Array.make n 0;
    st_name = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child_ns = Array.make max_depth 0;
    st_words = Array.make max_depth 0.;
    st_child_words = Array.make max_depth 0.;
    st_slot = Array.make max_depth 0;
    depth = 0;
    ev_name = Array.make capacity 0;
    ev_start = Array.make capacity 0;
    ev_end = Array.make capacity 0;
    ev_parent = Array.make capacity 0;
    ev_op = Array.make capacity 0;
    ev_tid = Array.make capacity 0;
    nev = 0;
  }

let id t name =
  let rec find i =
    if i = Array.length t.names then raise Not_found
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let enter t name ~op =
  let d = t.depth in
  let start = Clock.now_ns () in
  t.st_name.(d) <- name;
  t.st_start.(d) <- start;
  t.st_child_ns.(d) <- 0;
  t.st_child_words.(d) <- 0.;
  (if t.nev < Array.length t.ev_name then begin
     let s = t.nev in
     t.nev <- s + 1;
     t.ev_name.(s) <- name;
     t.ev_start.(s) <- start;
     t.ev_end.(s) <- start;
     t.ev_parent.(s) <- (if d > 0 then t.st_slot.(d - 1) else -1);
     t.ev_op.(s) <- op;
     t.ev_tid.(s) <- 0;
     t.st_slot.(d) <- s
   end
   else t.st_slot.(d) <- -1);
  t.depth <- d + 1;
  t.st_words.(d) <- Gc.minor_words ()

let exit t =
  let words_now = Gc.minor_words () in
  let now = Clock.now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = now - t.st_start.(d) in
  let words = words_now -. t.st_words.(d) in
  let name = t.st_name.(d) in
  t.self_ns.(name) <- t.self_ns.(name) + dur - t.st_child_ns.(d);
  t.self_words.(name) <- t.self_words.(name) +. words -. t.st_child_words.(d);
  t.count.(name) <- t.count.(name) + 1;
  if d > 0 then begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. words
  end;
  let s = t.st_slot.(d) in
  if s >= 0 then t.ev_end.(s) <- now

let layer t ~rx ?tx (l : 'a Ldlp_core.Layer.t) =
  let wrap name handler =
    let id = id t name in
    fun (msg : 'a Ldlp_core.Msg.t) ->
      enter t id ~op:msg.Ldlp_core.Msg.id;
      let r = handler msg in
      exit t;
      r
  in
  {
    l with
    Ldlp_core.Layer.handle = wrap rx l.Ldlp_core.Layer.handle;
    handle_tx =
      (match tx with None -> l.Ldlp_core.Layer.handle_tx | Some tx -> wrap tx l.handle_tx);
  }

let record t name ~op ~tid ~parent ~start ~stop ~child_ns =
  t.self_ns.(name) <- t.self_ns.(name) + (stop - start) - child_ns;
  t.count.(name) <- t.count.(name) + 1;
  if t.nev < Array.length t.ev_name then begin
    let s = t.nev in
    t.nev <- s + 1;
    t.ev_name.(s) <- name;
    t.ev_start.(s) <- start;
    t.ev_end.(s) <- stop;
    t.ev_parent.(s) <- parent;
    t.ev_op.(s) <- op;
    t.ev_tid.(s) <- tid;
    s
  end
  else -1

let self_ns t i = t.self_ns.(i)

let self_words t i = t.self_words.(i)

let count t i = t.count.(i)

let total_self_ns t = Array.fold_left ( + ) 0 t.self_ns

let write_chrome t path =
  let oc = open_out path in
  let t0 = ref max_int in
  for s = 0 to t.nev - 1 do
    t0 := min !t0 t.ev_start.(s)
  done;
  let t0 = !t0 in
  let us ns = float_of_int ns /. 1000. in
  output_string oc "{\"traceEvents\":[\n";
  for s = 0 to t.nev - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d}}\n"
      (if s = 0 then "" else ",")
      t.names.(t.ev_name.(s))
      t.ev_tid.(s)
      (us (t.ev_start.(s) - t0))
      (us (t.ev_end.(s) - t.ev_start.(s)))
      s t.ev_parent.(s) t.ev_op.(s)
  done;
  output_string oc "],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc
