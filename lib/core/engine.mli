(** The one LDLP engine: blocked layer scheduling over a directed layer
    graph, parameterised by traversal direction and topology.

    The paper's discipline (Section 3) is a single idea — {e run the
    layer furthest along over everything it has queued} — yet it applies
    in several shapes: up a linear receive chain ({!rx_chain}), down a
    linear transmit chain ({!tx_chain}), across a demultiplexing protocol
    graph ({!add_layer}), and over both directions of one stack at once
    ({!duplex}).  Every stack in the repo is an engine built by one of
    these constructors; they differ only in the nodes they lay out.  The
    engine owns per-node queues, the {!Batch}-policy entry quantum, the
    priority rule, intake-limit shedding, [on_handled] hooks, unified
    {!stats} and {!Ldlp_obs.Metrics} recording.

    A node is a layer plus a {e role}: which handler runs ([handle] for
    receive traversal, [handle_tx] for transmit), where each
    {!Layer.action} routes ({!target}), a scheduling priority, and
    whether the node is an {e entry point}.  Scheduling follows the
    locality rule uniformly:

    - {b Conventional}: pop one message from the highest-priority
      non-empty queue and recurse it through the graph depth-first —
      per-message processing, every layer's code refetched per message.
    - {b LDLP}: a quantum runs the highest-priority non-empty node to
      completion over its whole queue; entry nodes instead yield after a
      D-cache-bounded batch ({!Batch.limit}), keeping latency bounded.

    Under light load LDLP degenerates to batches of one and behaves like
    the conventional discipline; under heavy load batches grow and
    I-cache misses amortise — the effect measured in Figures 5–7.

    Priorities encode "furthest from the entry points wins": the
    constructors assign ascending values along each traversal so a
    message near its exit always pre-empts newly arrived work.  Ties
    break toward the earliest-registered node, which keeps graph
    scheduling deterministic. *)

type discipline = Conventional | Ldlp of Batch.policy

type target =
  | To_node of int  (** Forward into another node's queue (or recurse). *)
  | To_up  (** Terminal: the upward sink ([stats.to_up]). *)
  | To_down  (** Terminal: the downward/wire sink ([stats.to_down]). *)
  | Misroute  (** Terminal: dropped, counted in [stats.misrouted]. *)

type stats = {
  injected : int;  (** Accepted arrivals across all injection points. *)
  to_up : int;  (** Messages that reached the upward sink. *)
  to_down : int;  (** Messages that reached the downward sink. *)
  consumed : int;  (** Messages absorbed by a layer. *)
  misrouted : int;  (** Actions routed along a non-existent edge. *)
  shed : int;  (** Arrivals refused by the intake high-watermark. *)
  batches : int;  (** Scheduling quanta charged to entry points. *)
  max_batch : int;
  total_batched : int;  (** Sum of recorded batch sizes. *)
  per_node : (string * int) list;  (** Handler invocations, node order. *)
  per_node_runs : (string * int) list;
      (** How many times scheduling {e switched into} each node — the
          number of code working-set reloads, the quantity LDLP batching
          amortises.  Node order. *)
}

type 'a t

(** {1 Linear stacks}

    [layers] is bottom-first and must be non-empty, so one stack
    description serves both directions.  The optional arguments mean the
    same for every constructor:

    - [on_handled node_index layer msg] fires before every handler
      invocation (the cycle-accurate model charges the memory system
      here);
    - [on_consume] fires when a layer answers {!Layer.Consume} — the
      natural place to release a pooled message that ends its life
      inside the stack;
    - [intake_limit] (≥ 1) bounds every entry queue with the
      drop-at-the-door policy: an arrival finding the queue at the
      watermark is counted in [stats.shed] (and a "shed" scalar on the
      sheet, registered only when a limit is set), handed to [on_shed],
      and refused without touching [injected];
    - [metrics] needs one row per node, in node order; the engine
      records arrivals, batch sizes, per-node handler counts/quanta,
      queue depths and per-handler minor-heap allocation into it.
      Without a sheet nothing is recorded. *)

val rx_chain :
  discipline:discipline ->
  layers:'a Layer.t list ->
  ?up:('a Msg.t -> unit) ->
  ?down:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?on_consume:('a Msg.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:('a Msg.t -> unit) ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  'a t
(** The receive chain: node [i] runs layer [i]'s [handle]; arrivals enter
    node 0.  [up] receives messages delivered above the top layer, [down]
    every [Send_down].  A [Deliver_to] naming anything but the next layer
    up is misrouted (a chain cannot demultiplex).  Under [LDLP_CHECK],
    {!run} also checks [total_batched = injected] and
    [injected = to_up + consumed + misrouted]. *)

val tx_chain :
  discipline:discipline ->
  layers:'a Layer.t list ->
  ?wire:('a Msg.t -> unit) ->
  ?up:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  'a t
(** The transmit chain, the receive chain's mirror: node [i] runs layer
    [i]'s [handle_tx]; applications submit at the top node
    ([node_count t - 1]), which yields after a D-cache-sized batch, and
    the lowest non-empty node has the highest priority (it is closest to
    the wire).  [wire] receives frames leaving below layer 0; [up]
    receives any [Deliver_up] a transmit handler emits (e.g.
    loopback).  Its submission queue is unbounded. *)

(** {1 Protocol graphs and custom topologies} *)

val create :
  discipline:discipline ->
  ?up:('a Msg.t -> unit) ->
  ?down:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?on_consume:('a Msg.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:('a Msg.t -> unit) ->
  unit ->
  'a t
(** An empty engine, for a protocol graph built with {!add_layer} or a
    custom topology built with {!add_node}.  [up]/[down] receive messages
    routed {!To_up} / {!To_down}; the other arguments are as for the
    linear stacks. *)

val add_layer : 'a t -> ?above:int list -> 'a Layer.t -> int
(** Register a protocol-graph layer (Section 3.2: "there can be more than
    one" layer directly above another) and return its node index.
    [above] lists the node indices of the layers directly above it, so
    the graph is built top-down.  Duplicate layer names and unknown
    parents raise [Invalid_argument].  A layer with no [above] is a top
    layer: its [Deliver_up] goes to the [up] sink.  A layer with several
    parents must route upward with {!Layer.Deliver_to}, naming one.

    Depth below the top layers sets priority (the deepest queued layer
    runs first); layers nobody lists as a parent are the entry points
    ({!is_entry}).  Under [LDLP_CHECK], {!run} also checks
    [total_batched <= injected] and
    [injected = to_up + consumed + misrouted]. *)

val add_node :
  'a t ->
  layer:'a Layer.t ->
  use_tx:bool ->
  priority:int ->
  entry:bool ->
  up_route:target ->
  to_route:(string -> target) ->
  down_route:target ->
  int
(** Register a node and return its index (assigned sequentially).
    [use_tx] selects [Layer.handle_tx] over [Layer.handle];
    [up_route]/[to_route]/[down_route] say where [Deliver_up],
    [Deliver_to] and [Send_down] actions go from this node.  [entry]
    nodes take batch-bounded quanta under LDLP; non-entry nodes run to
    completion.  Routes may name nodes not yet added ([To_node j] with
    [j >= node_count]) only if they are added before any message takes
    that route. *)

val is_entry : 'a t -> int -> bool

val node_count : 'a t -> int

val node_name : 'a t -> int -> string

val attach_metrics : 'a t -> Ldlp_obs.Metrics.t -> unit
(** Attach a metric sheet once every node exists; one row per node, in
    node order (the sheet's layer count must match {!node_count}).
    Recording follows the linear stacks' [metrics] contract. *)

(** {1 Driving} *)

val try_inject : 'a t -> node:int -> 'a Msg.t -> bool
(** Message arrival at a node's queue; [false] means it was shed (and
    already passed to [on_shed]).  Never processes anything — callers
    control the interleaving of arrivals and work. *)

val inject : 'a t -> node:int -> 'a Msg.t -> unit
(** {!try_inject}, shedding silently. *)

val backlog : 'a t -> node:int -> int

val pending : 'a t -> int

val step : 'a t -> bool
(** One scheduling quantum; [false] when every queue is empty. *)

val run : 'a t -> unit
(** {!step} until idle, then check the idle invariants (under
    [LDLP_CHECK]): no pending messages, every enqueued message handled
    exactly once, batch accounting sane, and the conservation equations
    of the engine's shape (see {!rx_chain} and {!add_layer}). *)

val stats : 'a t -> stats

(** {1 Full-duplex stacks}

    One engine instance scheduling {e both} directions of a stack in a
    single quantum loop.  Given layers [l0 .. l(n-1)] (bottom-first, as
    everywhere), {!duplex} builds [2n] nodes — receive nodes [0..n-1]
    running [handle] bottom-up, transmit nodes [n..2n-1] (transmit node
    for layer [i] at index [n + i]) running [handle_tx] top-down.  A
    receive node's [Send_down] crosses into the {e same layer's}
    transmit node, so replies generated while draining a receive batch
    (TCP ACKs) join the transmit queues of the same scheduling pass and
    descend as a batch of their own — cross-direction amortisation.

    Priorities place the whole transmit side above the whole receive
    side (a frame about to reach the wire is furthest from any entry
    point), descending within transmit and ascending within receive:

    {v
      tx l0 (wire)  >  tx l1  >  ...  >  tx l(n-1)
                    >  rx l(n-1)  >  ...  >  rx l0 (entry)
    v}

    Entries: receive node [0] (frame arrival, {!duplex_rx_entry}) and
    transmit node [2n-1] (application submission, {!duplex_tx_entry});
    both take batch-bounded quanta. *)

val duplex :
  discipline:discipline ->
  layers:'a Layer.t list ->
  ?up:('a Msg.t -> unit) ->
  ?wire:('a Msg.t -> unit) ->
  ?on_handled:(int -> 'a Layer.t -> 'a Msg.t -> unit) ->
  ?on_consume:('a Msg.t -> unit) ->
  ?intake_limit:int ->
  ?on_shed:('a Msg.t -> unit) ->
  ?metrics:Ldlp_obs.Metrics.t ->
  unit ->
  'a t
(** [up] receives messages delivered above the top receive layer; [wire]
    receives frames leaving below the bottom transmit layer (and any
    [Deliver_up] a transmit handler emits goes to [up], as in
    {!tx_chain}).  [metrics] needs [2n] rows: the receive rows first,
    then the transmit rows ({!duplex_layer_names} builds the names).
    [intake_limit] bounds both entry queues. *)

val duplex_rx_entry : 'a t -> int
(** Node index where frames are injected (always [0]). *)

val duplex_tx_entry : 'a t -> int
(** Node index where the application submits (always [2n - 1]). *)

val duplex_layer_names : string list -> string list
(** Sheet row names for a duplex engine over the given (bottom-first)
    layer names: the names as given, then each suffixed ["/tx"], still
    bottom-first (node index order). *)

val tx_runs : 'a t -> int
(** Duplex reporting helper: total scheduling switches into transmit-side
    nodes ([n .. 2n-1]); [0] for any other engine.  [to_down / tx_runs]
    is the cross-direction amortisation — how many wire-bound messages
    each reload of the transmit-side code paid for. *)
