(** Host-speed calibration: every time the benchmark reports is scaled to a
    host of a fixed reference speed, measured by a calibration kernel run
    next to it (see calib.ml for why and how well it tracks). *)

type t

val create : quick:bool -> t
(** Runs the kernel five times.  [~quick:true] runs a twentieth of
    it, for smoke runs. *)

val refresh : t -> unit
(** Collects the heap, untimed, and runs the kernel again. *)

val factor : t -> float
(** The host's slowness: the median, over the last five kernel runs,
    of kernel time over its reference time (above 1 = slower than the
    reference). *)

val time : t -> (unit -> 'a) -> 'a * float
(** [time c f] runs [f], then [refresh], and returns [f]'s result and its
    normalised time in ns: its wall time over the factor. *)

val scaled : t -> (factor:float -> 'a) -> 'a
(** [scaled c f] runs [f ~factor] with the current factor, for
    measurements that scale their own clock (the open loops), then
    [refresh]. *)
