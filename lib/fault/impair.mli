(** A deterministic impairment engine for one direction of a link.

    Feed every frame the wire would carry through {!send}; what comes
    back is the (possibly empty) list of frames actually delivered, each
    with an extra delay to add on top of the link latency.  Drops,
    duplication, corruption, reordering and down episodes are decided by
    a private {!Ldlp_sim.Rng} stream, so a (plan, seed) pair replays the
    exact same fault sequence every run.

    The engine owns frames it removes from the stream: a dropped frame is
    passed to the [free] hook (count your mbufs), a duplicated frame's
    second copy comes from [clone], and a corrupted frame passes through
    [corrupt] (in-place mutation is fine).  Reordered frames are held
    inside the engine until {!send} releases them (after
    [reorder_window] later frames) or their deadline passes
    ({!release_due}). *)

type 'a t

type 'a emission = { frame : 'a; delay : float }
(** One frame to put on the wire, [delay] seconds later than an
    unimpaired frame would go. *)

type stats = {
  offered : int;  (** Frames fed to {!send}. *)
  delivered : int;  (** Emissions handed back (duplicates included). *)
  dropped : int;  (** Random drops plus {!drop_frame} calls. *)
  duplicated : int;
  corrupted : int;
  reordered : int;  (** Frames held back for reordering. *)
  down_dropped : int;  (** Frames sent into a down episode. *)
  flushed : int;  (** Held frames removed by {!flush} (teardown). *)
}

val create :
  ?clone:('a -> 'a) ->
  ?corrupt:('a -> 'a) ->
  ?free:('a -> unit) ->
  ?seed:int ->
  Plan.t ->
  'a t
(** Validates the plan.  Defaults: [clone] and [corrupt] are the
    identity, [free] does nothing (fine for unboxed frames; pass real
    hooks when frames are mbuf chains), seed 1996. *)

val send : 'a t -> now:float -> 'a -> 'a emission list
(** Pass one frame through the impairment model.  The result may be
    empty (dropped / held back / link down), contain the frame and a
    clone (duplication), and may additionally contain previously held
    frames whose reorder window just expired — in wire order. *)

val release_due : 'a t -> now:float -> 'a emission list
(** Held frames whose hold deadline has passed, oldest first.  Call at
    {!next_deadline} so reordered frames are not stranded when traffic
    stops. *)

val next_deadline : 'a t -> float option
(** Earliest hold deadline among held frames, if any. *)

val held : 'a t -> int

val flush : 'a t -> 'a emission list
(** Remove and return everything still held (teardown; not counted as
    delivered). *)

val drop_frame : 'a t -> 'a -> unit
(** Account an externally dropped frame (e.g. the receive ring was full
    at delivery time): frees it and counts it in [dropped]. *)

val stats : 'a t -> stats
(** A snapshot of the counters, which the engine keeps as mutable fields
    and bumps in place. *)

val metrics_scalars : Ldlp_obs.Metrics.t -> 'a t -> unit
(** Publish the per-cause counters (drops, duplicates, corruptions,
    reorder holds, down-episode drops, teardown flushes, frames still
    held) as scalars on an observability sheet, each named
    ["fault." ^ cause]; each call adds the current counts. *)

(** The reorder window by itself, for differential testing against a
    reference replay: a held value is released after [window] subsequent
    pushes, or with {!release_due} once its deadline passes. *)
module Reorder : sig
  type 'a buf

  val create : window:int -> 'a buf

  val push : 'a buf -> hold:bool -> deadline:float -> 'a -> 'a list
  (** Age every held value by one slot and return the releases (oldest
      first); with [hold] the new value joins the buffer, otherwise it is
      appended to the returned list. *)

  val release_due : 'a buf -> now:float -> 'a list

  val flush : 'a buf -> 'a list

  val held : 'a buf -> int
end
