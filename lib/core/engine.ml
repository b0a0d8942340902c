module Metrics = Ldlp_obs.Metrics
module Obs = Ldlp_obs.Obs

type discipline = Conventional | Ldlp of Batch.policy

type target = To_node of int | To_up | To_down | Misroute

(* How the engine was built.  It selects the shape-specific idle
   equations [run] checks, and records where a duplex engine's transmit
   side starts. *)
type shape =
  | Custom  (* [create] + [add_node] *)
  | Rx_chain
  | Tx_chain
  | Graph  (* [create] + [add_layer] *)
  | Duplex of int  (* first transmit node *)

type 'a node = {
  layer : 'a Layer.t;
  use_tx : bool;
  priority : int;
  mutable entry : bool;
  up_route : target;
  to_route : string -> target;
  down_route : target;
  queue : 'a Msg.t Rqueue.t;
  size_at : int -> int;
      (* Byte size of the k-th queued message — prebuilt once per node so
         the batch-limit scan in the quantum loop allocates no closure. *)
  mutable handled : int;
  mutable runs : int;
}

type stats = {
  injected : int;
  to_up : int;
  to_down : int;
  consumed : int;
  misrouted : int;
  shed : int;
  batches : int;
  max_batch : int;
  total_batched : int;
  per_node : (string * int) list;
  per_node_runs : (string * int) list;
}

type 'a t = {
  discipline : discipline;
  mutable nodes : 'a node array;
  mutable nnodes : int;
  up : 'a Msg.t -> unit;
  down : 'a Msg.t -> unit;
  on_handled : int -> 'a Layer.t -> 'a Msg.t -> unit;
  on_consume : 'a Msg.t -> unit;
  mutable injected : int;
  mutable to_up : int;
  mutable to_down : int;
  mutable consumed : int;
  mutable misrouted : int;
  mutable batches : int;
  mutable max_batch : int;
  mutable total_batched : int;
  intake_limit : int option;
  on_shed : 'a Msg.t -> unit;
  mutable shed : int;
  mutable shed_sc : int ref;
  mutable metrics : Metrics.t option;
  mutable last_ran : int;  (* node of the previous handler call, or -1 *)
  mutable dequeued : int;  (* queue pops + recursive forwards, for run () *)
  mutable enqueued : int;  (* queue pushes (injections included) *)
  mutable shape : shape;
}

let create ~discipline ?(up = fun _ -> ()) ?(down = fun _ -> ())
    ?(on_handled = fun _ _ _ -> ()) ?(on_consume = fun _ -> ()) ?intake_limit
    ?(on_shed = fun _ -> ()) () =
  (match intake_limit with
  | Some n when n < 1 -> invalid_arg "Engine.create: intake_limit < 1"
  | _ -> ());
  {
    discipline;
    nodes = [||];
    nnodes = 0;
    up;
    down;
    on_handled;
    on_consume;
    injected = 0;
    to_up = 0;
    to_down = 0;
    consumed = 0;
    misrouted = 0;
    batches = 0;
    max_batch = 0;
    total_batched = 0;
    intake_limit;
    on_shed;
    shed = 0;
    shed_sc = ref 0;
    metrics = None;
    last_ran = -1;
    dequeued = 0;
    enqueued = 0;
    shape = Custom;
  }

let node_count t = t.nnodes

let node t i =
  if i < 0 || i >= t.nnodes then invalid_arg "Engine: node index out of range";
  t.nodes.(i)

let node_name t i = (node t i).layer.Layer.name

let mk_node ~layer ~use_tx ~priority ~entry ~up_route ~to_route ~down_route =
  let queue = Rqueue.create () in
  {
    layer;
    use_tx;
    priority;
    entry;
    up_route;
    to_route;
    down_route;
    queue;
    size_at = (fun k -> (Rqueue.get queue k).Msg.size);
    handled = 0;
    runs = 0;
  }

let add_node t ~layer ~use_tx ~priority ~entry ~up_route ~to_route ~down_route =
  let n = mk_node ~layer ~use_tx ~priority ~entry ~up_route ~to_route ~down_route in
  if t.nnodes = Array.length t.nodes then begin
    let grown = Array.make (Int.max 4 (2 * Array.length t.nodes)) n in
    Array.blit t.nodes 0 grown 0 t.nnodes;
    t.nodes <- grown
  end;
  let i = t.nnodes in
  t.nodes.(i) <- n;
  t.nnodes <- i + 1;
  i

let is_entry t i = (node t i).entry

let add_layer t ?(above = []) layer =
  let name = layer.Layer.name in
  for i = 0 to t.nnodes - 1 do
    if node_name t i = name then
      invalid_arg ("Engine.add_layer: duplicate layer " ^ name)
  done;
  (* [node_name] rejects an index that names no node. *)
  let parents = List.map (fun p -> (node_name t p, p)) above in
  (* A graph node's priority is its negated depth below the top layers,
     so the node furthest from the roots wins, ties toward registration
     order. *)
  let depth =
    match parents with
    | [] -> 0
    | ps ->
      1 + List.fold_left (fun d (_, p) -> Int.min d (-t.nodes.(p).priority)) max_int ps
  in
  let up_route =
    match parents with
    | [] -> To_up
    | [ (_, p) ] -> To_node p
    | _ :: _ :: _ ->
      (* Ambiguous fan-out: the handler must name its target. *)
      Misroute
  in
  let to_route target =
    match List.assoc_opt target parents with Some p -> To_node p | None -> Misroute
  in
  let i =
    add_node t ~layer ~use_tx:false ~priority:(-depth) ~entry:true ~up_route
      ~to_route ~down_route:To_down
  in
  (* Every node starts as an entry point and stops being one the moment a
     layer registers below it. *)
  List.iter (fun (_, p) -> t.nodes.(p).entry <- false) parents;
  t.shape <- Graph;
  i

let attach_metrics t m =
  if Metrics.nlayers m <> t.nnodes then
    invalid_arg "Engine.attach_metrics: sheet layer count <> node count";
  (* The "shed" scalar exists only on engines that can actually shed, so
     sheets of unlimited engines render exactly as before. *)
  if t.intake_limit <> None then t.shed_sc <- Metrics.scalar m "shed";
  t.metrics <- Some m

let try_inject t ~node:i msg =
  let n = node t i in
  match t.intake_limit with
  | Some limit when Rqueue.length n.queue >= limit ->
    (* Overload: refuse at the door.  The message never counts as
       injected, so the idle conservation invariants are untouched; the
       owner reclaims its payload in [on_shed]. *)
    t.shed <- t.shed + 1;
    Metrics.add_scalar t.shed_sc 1;
    t.on_shed msg;
    false
  | _ ->
    t.injected <- t.injected + 1;
    t.enqueued <- t.enqueued + 1;
    Rqueue.push n.queue msg;
    (match t.metrics with
    | None -> ()
    | Some mt ->
      let d = Rqueue.length n.queue in
      Metrics.arrival mt ~depth:d;
      Metrics.queue_depth mt i d);
    true

let inject t ~node msg = ignore (try_inject t ~node msg)

let backlog t ~node:i = Rqueue.length (node t i).queue

(* Toplevel recursions, not local [let rec]s: a local recursive helper
   that captures [t] is a fresh closure on every call, and [pending] /
   [next_ready] run once per quantum / per step on the allocation-free
   hot path. *)
let rec pending_from t i acc =
  if i >= t.nnodes then acc
  else pending_from t (i + 1) (acc + Rqueue.length t.nodes.(i).queue)

let pending t = pending_from t 0 0

(* Run one message through node [i]'s handler and dispatch its actions.
   [recurse] processes [To_node] routes immediately, depth-first
   (conventional); otherwise the target's queue receives them (LDLP).
   The dispatch loop is hand-rolled recursion — no [List.iter] closure,
   no per-call handler closure — so a quantum over layers that answer
   with the static {!Layer.up_only}/[down_only] lists touches the heap
   not at all. *)
let rec handle t i msg ~recurse =
  let n = t.nodes.(i) in
  if t.last_ran <> i then begin
    n.runs <- n.runs + 1;
    t.last_ran <- i
  end;
  t.on_handled i n.layer msg;
  n.handled <- n.handled + 1;
  (match t.metrics with None -> () | Some mt -> Metrics.handled mt i);
  let actions =
    (* Gc sampling around the handler only (not the dispatch below), so a
       recursive traversal in conventional mode cannot double-attribute
       one node's allocations to the node that forwarded to it. *)
    match t.metrics with
    | Some mt when Obs.enabled () ->
      let w0 = Gc.minor_words () in
      let actions =
        if n.use_tx then n.layer.Layer.handle_tx msg else n.layer.Layer.handle msg
      in
      Metrics.alloc mt i (int_of_float (Gc.minor_words () -. w0));
      actions
    | _ ->
      if n.use_tx then n.layer.Layer.handle_tx msg else n.layer.Layer.handle msg
  in
  dispatch t n msg actions ~recurse

and dispatch t n msg actions ~recurse =
  match actions with
  | [] -> ()
  | action :: rest ->
    (match action with
    | Layer.Consume ->
      t.consumed <- t.consumed + 1;
      t.on_consume msg
    | Layer.Up -> route t n.up_route msg ~recurse
    | Layer.Down -> route t n.down_route msg ~recurse
    | Layer.Deliver_up m -> route t n.up_route m ~recurse
    | Layer.Deliver_to (name, m) -> route t (n.to_route name) m ~recurse
    | Layer.Send_down m -> route t n.down_route m ~recurse);
    dispatch t n msg rest ~recurse

and route t target m ~recurse =
  match target with
  | To_up ->
    t.to_up <- t.to_up + 1;
    t.up m
  | To_down ->
    t.to_down <- t.to_down + 1;
    t.down m
  | Misroute -> t.misrouted <- t.misrouted + 1
  | To_node j ->
    if recurse then begin
      t.dequeued <- t.dequeued + 1;
      (* Account the forward as if it passed through the queue, so the
         idle flow-balance invariant holds for both disciplines. *)
      t.enqueued <- t.enqueued + 1;
      handle t j m ~recurse
    end
    else begin
      t.enqueued <- t.enqueued + 1;
      Rqueue.push (node t j).queue m;
      match t.metrics with
      | None -> ()
      | Some mt -> Metrics.queue_depth mt j (Rqueue.length t.nodes.(j).queue)
    end

let record_batch t n =
  t.batches <- t.batches + 1;
  t.max_batch <- Int.max t.max_batch n;
  t.total_batched <- t.total_batched + n;
  match t.metrics with None -> () | Some mt -> Metrics.batch_run mt n

(* Non-empty node with the highest priority; ties go to the earliest
   node, so graph traversal stays deterministic. *)
let rec next_ready_from t i best =
  if i < 0 then best
  else
    let best =
      if
        (not (Rqueue.is_empty t.nodes.(i).queue))
        && (best < 0 || t.nodes.(i).priority >= t.nodes.(best).priority)
      then i
      else best
    in
    next_ready_from t (i - 1) best

let next_ready t = next_ready_from t (t.nnodes - 1) (-1)

let pop t i =
  t.dequeued <- t.dequeued + 1;
  Rqueue.pop (node t i).queue

let step_conventional t =
  match next_ready t with
  | -1 -> false
  | i ->
    record_batch t 1;
    handle t i (pop t i) ~recurse:true;
    true

let step_ldlp t policy =
  match next_ready t with
  | -1 -> false
  | i when t.nodes.(i).entry ->
    (* Entry point: yield after one D-cache-sized batch so message data
       is still resident when the nodes further along run. *)
    let nd = t.nodes.(i) in
    let n = Batch.limit policy ~len:(Rqueue.length nd.queue) ~size:nd.size_at in
    Invariant.check
      (n >= 1 && n <= Rqueue.length nd.queue)
      "Engine.step: batch limit outside [1, backlog]";
    record_batch t n;
    for _ = 1 to n do
      handle t i (pop t i) ~recurse:false
    done;
    true
  | i ->
    (* Run to completion: apply this node to every message it has queued
       before anything else runs. *)
    while not (Rqueue.is_empty t.nodes.(i).queue) do
      handle t i (pop t i) ~recurse:false
    done;
    true

let step t =
  match t.discipline with
  | Conventional -> step_conventional t
  | Ldlp policy -> step_ldlp t policy

let run t =
  while step t do
    ()
  done;
  Invariant.check (pending t = 0) "Engine.run: idle with pending messages";
  Invariant.check
    (t.dequeued = t.enqueued)
    "Engine.run: enqueued messages not all handled at idle";
  Invariant.check
    (t.batches = 0 || t.max_batch >= 1)
    "Engine.run: recorded a batch smaller than 1";
  Invariant.check
    (t.total_batched <= t.dequeued)
    "Engine.run: more batched dequeues than dequeues";
  (* Terminal-outcome conservation for the shapes whose terminal routes
     are known; it assumes one terminal action per message, as in every
     stack in this repo. *)
  match t.shape with
  | Rx_chain ->
    (* Only node 0 takes arrivals and every dequeue there is batched. *)
    Invariant.check
      (t.total_batched = t.injected)
      "Engine.run: batches do not cover all injected messages";
    Invariant.check
      (t.injected = t.to_up + t.consumed + t.misrouted)
      "Engine.run: injected <> to_up + consumed + misrouted at idle"
  | Graph ->
    (* Forwarded messages drain uncounted under LDLP, so batch coverage
       is only an inequality here. *)
    Invariant.check
      (t.total_batched <= t.injected)
      "Engine.run: more batched dequeues than injections";
    Invariant.check
      (t.injected = t.to_up + t.consumed + t.misrouted)
      "Engine.run: injected <> to_up + consumed + misrouted at idle"
  | Custom | Tx_chain | Duplex _ -> ()

let stats t =
  let names f =
    List.init t.nnodes (fun i -> (t.nodes.(i).layer.Layer.name, f t.nodes.(i)))
  in
  {
    injected = t.injected;
    to_up = t.to_up;
    to_down = t.to_down;
    consumed = t.consumed;
    misrouted = t.misrouted;
    shed = t.shed;
    batches = t.batches;
    max_batch = t.max_batch;
    total_batched = t.total_batched;
    per_node = names (fun n -> n.handled);
    per_node_runs = names (fun n -> n.runs);
  }

(* ---------- stack constructors ---------- *)

(* Receive nodes [0 .. n-1] over bottom-first [layers]: priority ascends
   with the index (the layer furthest from the bottom entry point wins)
   and only node 0 takes arrivals.  [down_route i] is where layer [i]'s
   [Send_down] goes. *)
let add_rx_nodes t layers ~down_route =
  let top = Array.length layers - 1 in
  Array.iteri
    (fun i layer ->
      ignore
        (add_node t ~layer ~use_tx:false ~priority:i ~entry:(i = 0)
           ~up_route:(if i = top then To_up else To_node (i + 1))
           ~to_route:(fun name ->
             (* A chain cannot demultiplex: a named delivery is valid only
                when it names the next layer up. *)
             if i < top && layers.(i + 1).Layer.name = name then To_node (i + 1)
             else Misroute)
           ~down_route:(down_route i)))
    layers

(* Transmit nodes [base .. base+n-1]: node [base + i] runs layer [i]'s
   [handle_tx], priority descends toward the wire from [base + n - 1],
   and only the top node takes submissions. *)
let add_tx_nodes t layers ~base =
  let top = Array.length layers - 1 in
  Array.iteri
    (fun i layer ->
      ignore
        (add_node t ~layer ~use_tx:true
           ~priority:(base + top - i)
           ~entry:(i = top) ~up_route:To_up
           ~to_route:(fun _ -> To_up)
           ~down_route:(if i = 0 then To_down else To_node (base + i - 1))))
    layers

let stack who layers =
  if layers = [] then invalid_arg (who ^ ": empty stack");
  Array.of_list layers

let finish t shape metrics =
  t.shape <- shape;
  Option.iter (attach_metrics t) metrics;
  t

let rx_chain ~discipline ~layers ?up ?down ?on_handled ?on_consume ?intake_limit
    ?on_shed ?metrics () =
  let layers = stack "Engine.rx_chain" layers in
  let t =
    create ~discipline ?up ?down ?on_handled ?on_consume ?intake_limit ?on_shed ()
  in
  add_rx_nodes t layers ~down_route:(fun _ -> To_down);
  finish t Rx_chain metrics

let tx_chain ~discipline ~layers ?wire ?up ?on_handled ?on_consume ?intake_limit
    ?on_shed ?metrics () =
  let layers = stack "Engine.tx_chain" layers in
  let t =
    create ~discipline ?up ?down:wire ?on_handled ?on_consume ?intake_limit
      ?on_shed ()
  in
  add_tx_nodes t layers ~base:0;
  finish t Tx_chain metrics

let duplex ~discipline ~layers ?up ?wire ?on_handled ?on_consume ?intake_limit
    ?on_shed ?metrics () =
  let layers = stack "Engine.duplex" layers in
  let t =
    create ~discipline ?up ?down:wire ?on_handled ?on_consume ?intake_limit
      ?on_shed ()
  in
  let n = Array.length layers in
  (* A receive node's [Send_down] crosses into the same layer's transmit
     node; the whole transmit side outranks the whole receive side. *)
  add_rx_nodes t layers ~down_route:(fun i -> To_node (n + i));
  (* Renamed so [per_node] rows and metric sheets tell the two directions
     of one layer apart. *)
  add_tx_nodes t ~base:n
    (Array.map (fun l -> { l with Layer.name = l.Layer.name ^ "/tx" }) layers);
  finish t (Duplex n) metrics

let require_duplex who t =
  match t.shape with Duplex _ -> () | _ -> invalid_arg (who ^ ": not duplex")

let duplex_rx_entry t =
  require_duplex "Engine.duplex_rx_entry" t;
  0

let duplex_tx_entry t =
  require_duplex "Engine.duplex_tx_entry" t;
  t.nnodes - 1

let duplex_layer_names names = names @ List.map (fun n -> n ^ "/tx") names

let tx_runs t =
  match t.shape with
  | Duplex split ->
    let rec go i acc =
      if i >= t.nnodes then acc else go (i + 1) (acc + t.nodes.(i).runs)
    in
    go split 0
  | Custom | Rx_chain | Tx_chain | Graph -> 0
