(** Traffic sources: streams of [(arrival_time, size_bytes)] packets.

    All generators are pull-based and deterministic given an {!Ldlp_sim.Rng}
    stream, so experiments replay exactly. *)

type packet = { at : float; size : int }

type t
(** A packet stream; arrival times are non-decreasing. *)

val make : (unit -> packet option) -> t
(** Wrap a pull function.  The function must return monotonically
    non-decreasing times and [None] forever once exhausted. *)

val pull : t -> packet option

val peek : t -> packet option
(** Next packet without consuming it. *)

val of_list : packet list -> t
(** A replayable list source (must be time-sorted; raises otherwise). *)

val to_list : t -> packet list
(** Drain the stream.  It must be finite: bound an infinite source with
    {!limit_time} first. *)

val limit_time : t -> float -> t
(** Truncate the stream at a time horizon (exclusive). *)
