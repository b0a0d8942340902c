open Ldlp_core

type behaviour = Pass | Consume_every of int | Reply_every of int

type spec = {
  layers : behaviour list;
  msgs : (int * int) list;
  policy : Batch.policy;
  interleave : int;
}

let pp_behaviour ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Consume_every k -> Format.fprintf ppf "consume/%d" k
  | Reply_every k -> Format.fprintf ppf "reply/%d" k

let pp_spec ppf s =
  Format.fprintf ppf "stack=[%a] msgs=%d policy=%a interleave=%d"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";")
       pp_behaviour)
    s.layers (List.length s.msgs) Batch.pp s.policy s.interleave

type trace = {
  visits : int list array;
  up_order : int list;
  down_order : int list;
  stats : Engine.stats;
}

let divides k n = k > 0 && n mod k = 0

(* Payload: the message's injection index; a reply carries [-idx - 1].
   Behaviours depend only on it, so both disciplines make identical
   per-message decisions regardless of visit order. *)
let reply msg = Msg.make ~size:40 (-msg.Msg.payload - 1)

let origin msg = if msg.Msg.payload >= 0 then msg.Msg.payload else -msg.Msg.payload - 1

let layer_of_behaviour i behaviour =
  Layer.v ~name:(Format.asprintf "L%d-%a" i pp_behaviour behaviour)
    (fun msg ->
      match behaviour with
      | Consume_every k when divides k msg.Msg.payload -> [ Layer.Consume ]
      | Reply_every k when divides k msg.Msg.payload ->
        [ Layer.Send_down (reply msg); Layer.Deliver_up msg ]
      | Pass | Consume_every _ | Reply_every _ -> [ Layer.Deliver_up msg ])

(* The same behaviours installed as [handle_tx]: [Pass] forwards toward
   the wire, [Consume_every] absorbs, [Reply_every] loops a notification
   up (a send-completion event) before forwarding the original. *)
let layer_of_behaviour_tx i behaviour =
  Layer.v ~name:(Format.asprintf "L%d-%a" i pp_behaviour behaviour)
    ~tx:(fun msg ->
      match behaviour with
      | Consume_every k when divides k msg.Msg.payload -> [ Layer.Consume ]
      | Reply_every k when divides k msg.Msg.payload ->
        [ Layer.Deliver_up (reply msg); Layer.Send_down msg ]
      | Pass | Consume_every _ | Reply_every _ -> [ Layer.Send_down msg ])
    (fun msg -> [ Layer.Deliver_up msg ])

(* One run of [spec] on the engine [make] builds, injecting every message
   at the entry node it names.  Visits and sink arrivals of a reply are
   recorded under the message it answers. *)
let run_on make discipline spec =
  if spec.layers = [] then invalid_arg "Sched_oracle: empty stack";
  let n = List.length spec.msgs in
  let visits = Array.make (max n 1) [] in
  let up = ref [] and down = ref [] in
  let eng, entry =
    make ~discipline spec.layers
      ~up:(fun m -> up := origin m :: !up)
      ~down:(fun m -> down := origin m :: !down)
      ~on_handled:(fun i _ m -> visits.(origin m) <- i :: visits.(origin m))
  in
  let chunk = if spec.interleave <= 0 then max n 1 else spec.interleave in
  List.iteri
    (fun idx (flow, size) ->
      Engine.inject eng ~node:entry (Msg.make ~flow ~size idx);
      if (idx + 1) mod chunk = 0 then ignore (Engine.step eng))
    spec.msgs;
  Engine.run eng;
  {
    visits = Array.map List.rev visits;
    up_order = List.rev !up;
    down_order = List.rev !down;
    stats = Engine.stats eng;
  }

let run_spec =
  run_on (fun ~discipline behs ~up ~down ~on_handled ->
      let layers = List.mapi layer_of_behaviour behs in
      (Engine.rx_chain ~discipline ~layers ~up ~down ~on_handled (), 0))

let run_spec_tx =
  run_on (fun ~discipline behs ~up ~down ~on_handled ->
      let layers = List.mapi layer_of_behaviour_tx behs in
      ( Engine.tx_chain ~discipline ~layers ~wire:down ~up ~on_handled (),
        List.length layers - 1 ))

(* The receive behaviours over a full-duplex engine: a [Reply_every]
   layer's [Send_down] crosses into the same layer's transmit node and
   the reply descends the (passthrough) transmit side to the wire. *)
let run_spec_duplex =
  run_on (fun ~discipline behs ~up ~down ~on_handled ->
      let layers = List.mapi layer_of_behaviour behs in
      let eng = Engine.duplex ~discipline ~layers ~up ~wire:down ~on_handled () in
      (eng, Engine.duplex_rx_entry eng))

let batches_sane (st : Engine.stats) =
  (st.Engine.batches = 0 || st.Engine.max_batch >= 1)
  && st.Engine.max_batch <= st.Engine.total_batched

let conserved (st : Engine.stats) ~pending =
  pending = 0
  && st.Engine.injected = st.Engine.to_up + st.Engine.consumed + st.Engine.misrouted
  && st.Engine.total_batched = st.Engine.injected
  && batches_sane st

(* Every submission terminates at the wire or is consumed (loopback
   notifications are fresh messages, not submissions), and — the entry
   queue being the only injection point — batches cover every
   submission under both disciplines. *)
let conserved_tx (st : Engine.stats) ~pending =
  pending = 0
  && st.Engine.injected = st.Engine.to_down + st.Engine.consumed
  && st.Engine.total_batched = st.Engine.injected
  && batches_sane st

let multiset l = List.sort compare l

let flows_of spec = List.sort_uniq compare (List.map fst spec.msgs)

let ints l = String.concat ";" (List.map string_of_int l)

(* Run [spec] under both disciplines and compare what {!equivalent}
   documents; [order] picks the sink whose per-flow order must match. *)
let equivalent_on ~label ~run ~conserved ~order ~wire_multiset spec =
  let conv = run Engine.Conventional spec in
  let ldlp = run (Engine.Ldlp spec.policy) spec in
  let err fmt = Format.kasprintf (fun s -> Error (label ^ s)) fmt in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let rec check_visits i =
    if i >= List.length spec.msgs then Ok ()
    else if multiset conv.visits.(i) <> multiset ldlp.visits.(i) then
      err "msg %d node-visit multisets differ: conv=[%s] ldlp=[%s]" i
        (ints conv.visits.(i)) (ints ldlp.visits.(i))
    else check_visits (i + 1)
  in
  let same field f =
    let a = f conv.stats and b = f ldlp.stats in
    if a = b then Ok () else err "%s: conv=%d ldlp=%d" field a b
  in
  let* () = check_visits 0 in
  let* () = same "to_up" (fun s -> s.Engine.to_up) in
  let* () = same "consumed" (fun s -> s.Engine.consumed) in
  let* () = same "to_down" (fun s -> s.Engine.to_down) in
  let* () = same "misrouted" (fun s -> s.Engine.misrouted) in
  let* () =
    if conserved conv.stats then Ok ()
    else err "conventional run violates conservation"
  in
  let* () =
    if conserved ldlp.stats then Ok () else err "ldlp run violates conservation"
  in
  let* () =
    if wire_multiset && multiset conv.down_order <> multiset ldlp.down_order
    then err "wire multisets differ"
    else Ok ()
  in
  let flow_of idx = fst (List.nth spec.msgs idx) in
  let per_flow t f = List.filter (fun idx -> flow_of idx = f) (order t) in
  let rec check_flows = function
    | [] -> Ok ()
    | f :: rest ->
      if per_flow conv f <> per_flow ldlp f then err "flow %d order differs" f
      else check_flows rest
  in
  check_flows (flows_of spec)

let equivalent =
  equivalent_on ~label:"" ~run:run_spec ~conserved:(conserved ~pending:0)
    ~order:(fun t -> t.up_order) ~wire_multiset:false

let equivalent_tx =
  equivalent_on ~label:"tx " ~run:run_spec_tx
    ~conserved:(conserved_tx ~pending:0)
    ~order:(fun t -> t.down_order) ~wire_multiset:false

(* Originals terminate above, at a consuming layer, or misrouted; every
   reply reaches the wire through the passthrough transmit side.  Wire
   order is only a multiset: replies originating at different receive
   layers legitimately interleave differently under LDLP (the receive
   oracle likewise never constrains down-sink order). *)
let equivalent_duplex =
  equivalent_on ~label:"duplex " ~run:run_spec_duplex
    ~conserved:(fun st ->
      st.Engine.injected = st.Engine.to_up + st.Engine.consumed + st.Engine.misrouted)
    ~order:(fun t -> t.up_order) ~wire_multiset:true

let random_spec ~rng =
  let module R = Ldlp_sim.Rng in
  let nlayers = 1 + R.int rng 6 in
  let layers =
    List.init nlayers (fun _ ->
        match R.int rng 10 with
        | r when r < 6 -> Pass
        | r when r < 8 -> Consume_every (2 + R.int rng 5)
        | _ -> Reply_every (2 + R.int rng 5))
  in
  let nmsgs = R.int rng 81 in
  let flows = 1 + R.int rng 4 in
  let msgs =
    List.init nmsgs (fun _ -> (R.int rng flows, R.int rng 4096))
  in
  let policy =
    match R.int rng 4 with
    | 0 -> Batch.All
    | 1 -> Batch.Fixed (1 + R.int rng 10)
    | 2 -> Batch.paper_default
    | _ ->
      Batch.Dcache_fit
        { cache_bytes = 512 + R.int rng 8192; per_msg_overhead = R.int rng 64 }
  in
  let interleave = if R.bool rng 0.5 then 0 else 1 + R.int rng 10 in
  { layers; msgs; policy; interleave }

let run_random ~seed ~cases =
  let rng = Ldlp_sim.Rng.create ~seed in
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let rec go i =
    if i >= cases then Ok cases
    else begin
      let spec = random_spec ~rng in
      match
        let* () = equivalent spec in
        let* () = equivalent_tx spec in
        equivalent_duplex spec
      with
      | Ok () -> go (i + 1)
      | Error e -> Error (Format.asprintf "case %d (%a): %s" i pp_spec spec e)
    end
  in
  go 0
