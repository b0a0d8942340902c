(** The seeded experiments, one entry each: the chaos soak, the mesh
    sweep, the crash-recovery ladder and the flow-table study.  This is
    their only definition: each entry runs at the size of its committed
    [BENCH_<name>.json], renders its figure, builds that document and
    applies every gate the experiment has.  The [ldlp_repro] experiment
    subcommands are generated from {!all}.  The same seed gives the same
    figure, document and verdict for any [domains]. *)

type outcome = {
  text : string;  (** The figure. *)
  doc : Schema.t * Schema.value list;  (** The [BENCH_<name>.json] contents. *)
  failures : string list;  (** One message per gate that failed. *)
}

type t = {
  name : string;  (** The [ldlp_repro] subcommand and the document's stem. *)
  doc : string;  (** That subcommand's help line. *)
  run : ?domains:int -> seed:int -> unit -> outcome;
}

val all : t list
(** [soak], [mesh], [recovery] and [flows], in that order. *)

val write : string -> Schema.t * Schema.value list -> unit
(** [write path doc] checks [doc] against its own schema, writes it to
    [path] and prints its members, each row array as a table.
    @raise Failure if the rendered document fails its schema. *)

val crash_config :
  victims:float -> hosts:int -> degree:int -> seed:int -> Ldlp_mesh.Mesh.config
(** The canonical crash plan: a [victims] share of the hosts crash twice
    inside a 20 ms horizon, with outages of 2-20 ms, long enough to kill
    attempts mid-flight and short enough that the retry budget usually
    outlives them. *)
