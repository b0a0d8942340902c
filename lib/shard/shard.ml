module Policy = struct
  type t = Affinity | Hash

  let name = function Affinity -> "affinity" | Hash -> "hash"

  (* Knuth's multiplicative constant, folded to non-negative before the
     final reduction so the result is stable across word sizes. *)
  let hash_of g =
    let h = g * 2654435761 in
    h land max_int

  let shard_of p ~shards ~groups g =
    if shards < 1 then invalid_arg "Policy.shard_of: shards < 1";
    if groups < 1 then invalid_arg "Policy.shard_of: groups < 1";
    if g < 0 || g >= groups then invalid_arg "Policy.shard_of: group out of range";
    if shards = 1 then 0
    else
      match p with
      | Affinity -> g * shards / groups
      | Hash -> hash_of g mod shards

  let plan p ~shards ~groups =
    Array.init groups (fun g -> shard_of p ~shards ~groups g)
end

type ('a, 'r) worker = {
  w_deliver : src_group:int -> dst_group:int -> 'a -> unit;
  w_step : round:int -> bool;
  w_finish : unit -> 'r;
}

type run_stats = {
  rs_shards : int;
  rs_groups : int;
  rs_policy : Policy.t;
  rs_rounds : int;
  rs_transferred : int;
}

let max_rounds = 100_000

(* Each round is two gang runs: every shard first drains its incoming
   handoff, then — only once all drains are done — delivers and steps,
   emitting new items.  Without the barrier between them a fast shard's
   round-r emissions could be drained by a slower shard still in its
   round-r drain, arriving a round early and breaking the
   placement-invariant schedule the whole design rests on. *)
let run ?(policy = Policy.Affinity) ~shards ~groups ~make () =
  if shards < 1 then invalid_arg "Shard.run: shards < 1";
  if groups < 1 then invalid_arg "Shard.run: groups < 1";
  let assign = Policy.plan policy ~shards ~groups in
  let members w =
    List.filter (fun g -> assign.(g) = w) (List.init groups Fun.id)
  in
  let h = Handoff.create ~shards in
  (* Per-group sequence counters.  A group lives on exactly one shard,
     so each cell is only ever touched by that shard's domain. *)
  let seqs = Array.make groups 0 in
  let emit_from w ~src_group ~dst_group v =
    if src_group < 0 || src_group >= groups || assign.(src_group) <> w then
      invalid_arg "Shard.run: emit from a group not on this shard";
    if dst_group < 0 || dst_group >= groups then
      invalid_arg "Shard.run: emit to unknown group";
    let seq = seqs.(src_group) in
    seqs.(src_group) <- seq + 1;
    Handoff.send h ~src_shard:w ~dst_shard:assign.(dst_group)
      ~src_group ~seq ~dst_group v
  in
  let workers = Array.make shards None in
  let inboxes = Array.make shards [] in
  let wants_more = Array.make shards false in
  let results = Array.make shards None in
  Ldlp_par.Pool.Gang.with_gang ~domains:shards (fun gang ->
      let each = Ldlp_par.Pool.Gang.run gang in
      each (fun w ->
          workers.(w) <- Some (make ~shard:w ~groups:(members w) ~emit:(emit_from w)));
      let worker w = Option.get workers.(w) in
      let rec go round =
        if round >= max_rounds then
          Printf.ksprintf failwith "Shard.run: no quiescence within %d rounds"
            max_rounds;
        each (fun w -> inboxes.(w) <- Handoff.receive h ~dst_shard:w);
        each (fun w ->
            let wk = worker w in
            List.iter
              (fun it ->
                wk.w_deliver ~src_group:it.Handoff.it_src_group
                  ~dst_group:it.Handoff.it_dst_group it.Handoff.it_value)
              inboxes.(w);
            inboxes.(w) <- [];
            wants_more.(w) <- wk.w_step ~round);
        if Array.exists Fun.id wants_more || Handoff.pending h then go (round + 1)
        else round + 1
      in
      let rounds = go 0 in
      each (fun w -> results.(w) <- Some ((worker w).w_finish ()));
      ( Array.map Option.get results,
        {
          rs_shards = shards;
          rs_groups = groups;
          rs_policy = policy;
          rs_rounds = rounds;
          rs_transferred = Handoff.transferred h;
        } ))
