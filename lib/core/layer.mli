(** Protocol layers as the LDLP engine sees them.

    A layer is a handler from a message to a list of actions, plus a
    {e footprint} describing the memory the handler's code and private data
    occupy.  The footprint is what locality-driven scheduling reasons about:
    the paper's central observation is that for small-message protocols the
    per-layer code footprint, not the message, dominates cache traffic.

    Handlers must be self-contained: everything they want to pass between
    layers goes in the message payload.  This is the property ("LDLP is
    mostly independent from the implementations of the layers themselves",
    Section 5) that lets the same layer run under conventional or blocked
    scheduling unchanged. *)

type 'a action =
  | Deliver_up of 'a Msg.t
      (** Hand the (possibly transformed) message to the layer above, or to
          the stack's upward sink at the top layer.  In a protocol graph
          ({!Engine.add_layer}) this is only valid when the layer has
          exactly one parent; demultiplexing layers use {!Deliver_to}. *)
  | Deliver_to of string * 'a Msg.t
      (** Hand the message to a specific layer above, by name — the
          demultiplexing step (e.g. IP choosing between TCP and UDP).
          Only meaningful in a protocol graph; the linear chains treat
          an unknown name as a protocol error and drop the message. *)
  | Send_down of 'a Msg.t
      (** Emit a message toward the network (e.g. an acknowledgment).
          Receive-side scheduling forwards these to the stack's downward
          sink immediately. *)
  | Consume  (** The message terminates here (delivered, dropped, ...). *)
  | Up
      (** Deliver {e the message being handled} upward, unchanged —
          equivalent to [Deliver_up msg] but a constant constructor, so
          the common "pass it up" answer ({!up_only}) is a statically
          allocated list and the steady-state path allocates nothing. *)
  | Down
      (** Send {e the message being handled} downward, unchanged — the
          allocation-free counterpart of [Send_down msg] ({!down_only}). *)

val up_only : 'a action list
(** The static list [[Up]].  Return this (rather than writing
    [[ Deliver_up msg ]]) from handlers that pass the message up
    unchanged; it lives in static data, so the handler allocates zero
    minor words. *)

val down_only : 'a action list
(** The static list [[Down]]. *)

val consume_only : 'a action list
(** The static list [[Consume]]. *)

type footprint = {
  code_bytes : int;  (** Code working set per message. *)
  data_bytes : int;  (** Private (per-layer) data working set. *)
  cycles_per_msg : int;  (** Pure execution cost, fixed part. *)
  cycles_per_byte : float;  (** Execution cost of the data loop. *)
}

val footprint :
  ?code_bytes:int ->
  ?data_bytes:int ->
  ?cycles_per_msg:int ->
  ?cycles_per_byte:float ->
  unit ->
  footprint
(** Defaults are the paper's synthetic layer: 6 KB code, 256 B data,
    1652 cycles/message, 0.5 cycles/byte. *)

type 'a t = {
  name : string;
  fp : footprint;
  handle : 'a Msg.t -> 'a action list;  (** Receive-side processing. *)
  handle_tx : 'a Msg.t -> 'a action list;
      (** Transmit-side processing (encapsulation), used by the
          transmit nodes of {!Engine.tx_chain} and {!Engine.duplex}.
          Defaults to passing the message down unchanged. *)
}

val v :
  name:string ->
  ?fp:footprint ->
  ?tx:('a Msg.t -> 'a action list) ->
  ('a Msg.t -> 'a action list) ->
  'a t

val passthrough : string -> 'a t
(** A layer that delivers every message upward (receive) or downward
    (transmit) unchanged — useful for tests and for modelling
    pure-overhead layers. *)
