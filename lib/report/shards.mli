(** The sharded call storm: the seed's Q.93B call storm on a 256-host,
    degree-4 mesh of duplex hosts, 32 pairs of 4 calls, run through
    {!Ldlp_mesh.Mesh.run_storm_sharded} at 1, 2 and 4 shards.  This is
    its only definition: [ldlp_repro shards] prints {!run}'s figure and
    fails on its gates, the [shards] golden pins the figure, and
    [bench/main.exe --shards] times the same storms and writes
    {!doc}.  It is kept out of {!Experiment}'s table because
    [BENCH_shards.json] also holds host-timed fields. *)

type row = {
  shards : int;
  components : int;  (** Host-disjoint pair components, spread over the shards. *)
  completed : int;  (** Calls completed. *)
  cpu_s_max : float;  (** The busiest shard's modeled CPU seconds. *)
  cpu_pairs_per_s : float;
      (** [completed / cpu_s_max]: the CPU-limited rate once each shard
          owns a CPU. *)
  ok : bool;
      (** The merged storm equals the single-domain {!Ldlp_mesh.Mesh.run_storm},
          conserves messages and leaks nothing. *)
}

type t = {
  seed : int;
  rows : row list;  (** At 1, 2 and 4 shards, in that order. *)
  text : string;  (** The figure: every row's columns. *)
  failures : string list;
      (** One message per gate that failed: a row that is not [ok], or a
          CPU-limited rate that does not rise with the shard count. *)
}

val run : seed:int -> t
(** The storm at every shard count, and the single-domain reference.
    Every field is a pure function of [seed]. *)

val storm : seed:int -> shards:int -> Ldlp_mesh.Mesh.storm_sharded
(** One run of the storm at [shards], the run {!run} makes for that row. *)

val config : seed:int -> Ldlp_mesh.Mesh.config
(** The storm's mesh: 256 hosts of degree 4, pristine links. *)

val doc :
  t -> host_cores:int -> wall_s:float list -> Schema.t * Schema.value list
(** The [BENCH_shards.json] contents: [t]'s rows, each with the host's
    wall seconds from [wall_s] (one per row, in order) and the
    completed pairs per wall second.
    @raise Invalid_argument unless [wall_s] has one entry per row. *)
