type 'a item = {
  it_src_group : int;
  it_seq : int;
  it_dst_group : int;
  it_value : 'a;
}

(* outbox.(src * shards + dst) holds what [src] sent to [dst] since the
   last drain, newest first.  A cell is written only by [src]'s domain in
   a step phase and read only by [dst]'s domain in the next drain phase;
   the round loop's barrier orders the two.  [n_received.(dst)] is written
   only by [dst]'s domain. *)
type 'a t = {
  n : int;
  outbox : 'a item list array;
  n_received : int array;
}

let create ~shards =
  if shards < 1 then invalid_arg "Handoff.create: shards < 1";
  {
    n = shards;
    outbox = Array.make (shards * shards) [];
    n_received = Array.make shards 0;
  }

let send t ~src_shard ~dst_shard ~src_group ~seq ~dst_group value =
  let i = (src_shard * t.n) + dst_shard in
  t.outbox.(i) <-
    { it_src_group = src_group; it_seq = seq; it_dst_group = dst_group;
      it_value = value }
    :: t.outbox.(i)

let compare_item a b =
  match compare a.it_src_group b.it_src_group with
  | 0 -> compare a.it_seq b.it_seq
  | c -> c

let receive t ~dst_shard =
  let acc = ref [] in
  for src = 0 to t.n - 1 do
    let i = (src * t.n) + dst_shard in
    acc := List.rev_append t.outbox.(i) !acc;
    t.outbox.(i) <- []
  done;
  let items = List.stable_sort compare_item !acc in
  t.n_received.(dst_shard) <- t.n_received.(dst_shard) + List.length items;
  items

let pending t = Array.exists (fun box -> box <> []) t.outbox

let transferred t = Array.fold_left ( + ) 0 t.n_received
