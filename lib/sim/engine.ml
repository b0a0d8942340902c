type t = {
  queue : (unit -> unit) Heap.t;
  (* One-cell float arrays, not mutable float fields: a float field in a
     record with non-float fields is boxed on every store. *)
  now : float array;
  next : float array;  (* the earliest queued time, for [run ~until] *)
  mutable stopped : bool;
}

let create () =
  { queue = Heap.create (); now = [| 0.0 |]; next = [| 0.0 |]; stopped = false }

let now t = t.now.(0)

let at t time f =
  if time < t.now.(0) then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is before now %g" time t.now.(0));
  Heap.push t.queue time f

let after t dt f = at t (t.now.(0) +. dt) f

let step t =
  if Heap.peek_key t.queue t.now then begin
    let f = Heap.pop_min t.queue in
    f ();
    true
  end
  else false

let run ?until t =
  t.stopped <- false;
  match until with
  | None -> while (not t.stopped) && step t do () done
  | Some limit ->
    let continue = ref true in
    while !continue && not t.stopped do
      if not (Heap.peek_key t.queue t.next) then continue := false
      else if t.next.(0) > limit then begin
        t.now.(0) <- limit;
        continue := false
      end
      else ignore (step t)
    done

let pending t = Heap.size t.queue

let stop t = t.stopped <- true
