(** Seeded random-regular mesh topologies.

    The many-host simulator wires its hosts over a random [degree]-regular
    graph — the standard abstraction for peer-to-peer spread measurements
    (every host has the same fan-out, no hubs, small diameter with high
    probability).  Generation uses the pairing (configuration) model:
    [degree] stubs per host are shuffled with the seeded {!Ldlp_sim.Rng}
    and matched pairwise; matchings with self-loops or parallel edges are
    rejected and re-drawn, and so are disconnected graphs, so the result
    is always a {e simple connected} [degree]-regular graph.

    Everything is a pure function of [(hosts, degree, seed)]: no global
    RNG, no wall clock, no domain-count dependence — the property suite
    holds the generator to exactly that. *)

type t = private {
  hosts : int;
  degree : int;
  edges : (int * int) array;
      (** Canonical form: each edge [(u, v)] with [u < v], sorted
          lexicographically.  [Array.length edges = hosts * degree / 2]. *)
  adj : int array array;
      (** [adj.(h)] lists [h]'s neighbours in ascending order;
          [Array.length adj.(h) = degree] for every [h]. *)
  links : int array array;
      (** [links.(h).(i)] is the {!directed_index} of the link from [h]
          to [adj.(h).(i)], so a sender walks its two rows side by side
          instead of searching the edge array. *)
}

val generate : hosts:int -> degree:int -> seed:int -> t
(** Raises [Invalid_argument] unless [2 <= hosts], [1 <= degree < hosts]
    and [hosts * degree] is even (a [degree]-regular graph on [hosts]
    vertices exists exactly under these conditions), and also for degree
    1 on more than 2 hosts: that graph is a perfect matching, never
    connected.  Degree 2 (a union of cycles) may need many redraws to
    come out connected; the spread experiments use [degree >= 3].  The
    generator redraws up to 1,000,000 times, enough for every dense
    small graph the property suite draws (degree 5 on 6 to 16 hosts,
    where a simple draw can be rarer than one in 10,000), and raises
    [Invalid_argument] if none is simple and connected.  A draw allocates
    nothing. *)

val edge_count : t -> int

val directed_index : t -> src:int -> dst:int -> int
(** A dense index in [[0, 2 * edge_count)] for the directed link
    [src -> dst]: [2 * p] from the lower host of [edges.(p)], [2 * p + 1]
    from the higher.  Raises [Invalid_argument] if the edge does not
    exist.  Keys per-direction impairment engines and their seeds. *)

val is_connected : t -> bool
(** Always true for {!generate} output; exposed so the property suite
    checks the invariant rather than trusting it. *)

val eccentricity : t -> int -> int
(** BFS depth from the given host to the farthest host — a cheap
    topology summary for the rendered tables. *)
