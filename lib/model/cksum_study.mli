(** Figure 8: cache effects in checksum routines.

    The paper compares 4.4BSD's elaborate unrolled [in_cksum] (992 bytes of
    active code for messages over 32 bytes) against a simple small loop
    (288 bytes of active code, more work per byte), each with warm and cold
    primary instruction caches.  With a warm cache the elaborate routine
    wins at nearly all sizes; with a cold cache its larger fill cost makes
    the simple routine faster for messages up to about 900 bytes.

    We reproduce the study by running each routine's code footprint (the
    footprints are {!Ldlp_packet.Cksum.code_bytes_unrolled} and
    [code_bytes_simple], as the paper reports) through the cache simulator
    and adding a calibrated per-byte execution cost. *)

type point = {
  msg_bytes : int;
  elaborate_warm : float;  (** CPU cycles. *)
  elaborate_cold : float;
  simple_warm : float;
  simple_cold : float;
}

val series : unit -> point list
(** Points for message sizes 0 .. 992 every 16 bytes. *)

val cold_crossover : unit -> int
(** Smallest message size at which the elaborate routine beats the simple
    one with a cold cache (the paper: about 900 bytes). *)

val fill_cost : routine:[ `Elaborate | `Simple ] -> msg_bytes:int -> float
(** Cold-minus-warm cycle gap — the "cache fill cost" annotation of
    Figure 8 (about 426 cycles elaborate, 176 simple, for small
    messages). *)
