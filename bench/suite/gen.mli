(** Input schedules: pure functions of (seed, workload, phase, size).

    Every input a workload feeds its stack is built here, during set-up,
    from a random stream derived only from the seed, the workload name and
    the phase name.  The stacks receive the generated frames and payloads,
    never the seed. *)

val stream : seed:int -> workload:string -> phase:string -> Ldlp_sim.Rng.t
(** The phase's private random stream. *)

(** {1 Q.93B call lifecycles} *)

type calls = {
  slab : Bytes.t;
      (** Every link frame back to back: port tag + SSCOP frame. *)
  off : int array;  (** Frame [i] is [slab.[off.(i) .. off.(i+1))]. *)
  due_ns : int array;  (** Frame [i]'s due time, ns from the sub-run start. *)
  signalling : Bytes.t;
      (** ['\001'] for a Q.93B message (reaches the call layer), ['\000']
          for the caller's SSCOP ack of the switch's replies. *)
  final_ack : Bytes.t;
      (** A last SSCOP ack covering every reply the switch sends, to inject
          once the stack is idle. *)
  ncalls : int;
  replies : int;  (** Messages the auto-answering switch will send. *)
}

val port : int
(** The caller's port on the switch. *)

val calls :
  seed:int -> phase:string -> rate:float -> ncalls:int -> hold_ns:int -> calls
(** [ncalls] lifecycles with Poisson call arrivals at [rate] calls/s:
    SETUP, CONNECT_ACK 20 us later, RELEASE [hold_ns] after the
    SETUP.  Messages are merged in due-time order, each in its own
    sequenced SSCOP frame, with an SSCOP ack every 8 messages. *)

val frames : calls -> int

(** {1 TCP request/response} *)

val rpc_bytes : int
(** Request and response size: 64 B. *)

type rpcs = {
  due : int array;  (** Request [i]'s due time, ns from the sub-run start. *)
  conn : int array;  (** Connection carrying request [i], uniform. *)
  payload : Bytes.t;
      (** Request [i] is [payload.[64 i .. 64 i + 64)]: its index, then
          random bytes. *)
}

val rpcs : seed:int -> phase:string -> rate:float -> n:int -> conns:int -> rpcs

(** {1 Digests} *)

val digest : 'a -> string
(** Hex digest of a schedule's bytes. *)
