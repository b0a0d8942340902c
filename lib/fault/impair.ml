module Rng = Ldlp_sim.Rng

type 'a emission = { frame : 'a; delay : float }

type stats = {
  offered : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  reordered : int;
  down_dropped : int;
  flushed : int;
}

module Reorder = struct
  type 'a item = { value : 'a; mutable countdown : int; deadline : float }

  type 'a buf = { window : int; mutable items : 'a item list (* oldest first *) }

  let create ~window =
    if window < 1 then invalid_arg "Reorder.create: window < 1";
    { window; items = [] }

  let held t = List.length t.items

  let next_deadline t =
    match t.items with
    | [] -> None
    | items ->
      Some (List.fold_left (fun acc i -> Float.min acc i.deadline) infinity items)

  (* Age every held value by one slot; values whose window has elapsed
     leave, oldest first. *)
  let age t =
    List.iter (fun i -> i.countdown <- i.countdown - 1) t.items;
    let out, kept = List.partition (fun i -> i.countdown <= 0) t.items in
    t.items <- kept;
    List.map (fun i -> i.value) out

  let push t ~hold ~deadline v =
    (* Nothing held, nothing to age: the common case skips the partition. *)
    let out = match t.items with [] -> [] | _ -> age t in
    if hold then begin
      t.items <- t.items @ [ { value = v; countdown = t.window; deadline } ];
      out
    end
    else out @ [ v ]

  let release_due t ~now =
    let out, kept = List.partition (fun i -> i.deadline <= now) t.items in
    t.items <- kept;
    List.map (fun i -> i.value) out

  let flush t =
    let out = List.map (fun i -> i.value) t.items in
    t.items <- [];
    out
end

(* The counters are mutable fields, bumped in place on every frame;
   [stats] builds the immutable snapshot. *)
type 'a t = {
  plan : Plan.t;
  rng : Rng.t;
  clone : 'a -> 'a;
  corrupt : 'a -> 'a;
  free : 'a -> unit;
  reorder : 'a emission Reorder.buf;
  mutable offered : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable reordered : int;
  mutable down_dropped : int;
  mutable flushed : int;
}

let create ?(clone = Fun.id) ?(corrupt = Fun.id) ?(free = ignore) ?(seed = 1996)
    plan =
  Plan.validate plan;
  {
    plan;
    rng = Rng.create ~seed;
    clone;
    corrupt;
    free;
    reorder = Reorder.create ~window:(max 1 plan.Plan.reorder_window);
    offered = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
    reordered = 0;
    down_dropped = 0;
    flushed = 0;
  }

let stats t =
  {
    offered = t.offered;
    delivered = t.delivered;
    dropped = t.dropped;
    duplicated = t.duplicated;
    corrupted = t.corrupted;
    reordered = t.reordered;
    down_dropped = t.down_dropped;
    flushed = t.flushed;
  }

let held t = Reorder.held t.reorder

let next_deadline t = Reorder.next_deadline t.reorder

let count_delivered t n = t.delivered <- t.delivered + n

(* Corruption and jitter apply per copy; the RNG draw order (drop, dup,
   then corrupt/jitter/reorder per copy) is part of the replayable
   contract — tests pin it. *)
let emit t frame =
  let frame =
    if t.plan.Plan.corrupt > 0.0 && Rng.bool t.rng t.plan.Plan.corrupt then begin
      t.corrupted <- t.corrupted + 1;
      t.corrupt frame
    end
    else frame
  in
  let delay =
    if t.plan.Plan.jitter > 0.0 then Rng.float t.rng t.plan.Plan.jitter else 0.0
  in
  { frame; delay }

(* One copy through corruption, jitter and the reorder window. *)
let pass_copy t ~now f =
  let em = emit t f in
  let hold = t.plan.Plan.reorder > 0.0 && Rng.bool t.rng t.plan.Plan.reorder in
  if hold then t.reordered <- t.reordered + 1;
  Reorder.push t.reorder ~hold ~deadline:(now +. t.plan.Plan.hold_timeout) em

let send t ~now frame =
  t.offered <- t.offered + 1;
  if not (Plan.link_up t.plan now) then begin
    t.down_dropped <- t.down_dropped + 1;
    t.free frame;
    []
  end
  else if t.plan.Plan.drop > 0.0 && Rng.bool t.rng t.plan.Plan.drop then begin
    t.dropped <- t.dropped + 1;
    t.free frame;
    []
  end
  else begin
    let out =
      if t.plan.Plan.dup > 0.0 && Rng.bool t.rng t.plan.Plan.dup then begin
        t.duplicated <- t.duplicated + 1;
        (* The clone is taken before the original passes [corrupt], which
           may mutate it in place. *)
        let copy = t.clone frame in
        let first = pass_copy t ~now frame in
        first @ pass_copy t ~now copy
      end
      else pass_copy t ~now frame
    in
    count_delivered t (List.length out);
    out
  end

let release_due t ~now =
  let out = Reorder.release_due t.reorder ~now in
  count_delivered t (List.length out);
  out

let flush t =
  let out = Reorder.flush t.reorder in
  t.flushed <- t.flushed + List.length out;
  out

let drop_frame t frame =
  t.dropped <- t.dropped + 1;
  t.free frame

(* Per-cause counters as an Obs.Metrics scalar sheet: a no-op unless the
   observability gate is on (add_scalar is gated), so chaos runs cost
   nothing extra in normal operation. *)
let metrics_scalars ?(prefix = "fault.") m t =
  let put name v =
    Ldlp_obs.Metrics.add_scalar (Ldlp_obs.Metrics.scalar m (prefix ^ name)) v
  in
  put "offered" t.offered;
  put "delivered" t.delivered;
  put "dropped" t.dropped;
  put "duplicated" t.duplicated;
  put "corrupted" t.corrupted;
  put "reorder_held" t.reordered;
  put "down_dropped" t.down_dropped;
  put "flushed" t.flushed;
  put "still_held" (held t)
