(** Chaos soak: the tcpmini echo exchange under seeded fault injection.

    Each scenario wires two complete TCP/IP hosts (client and server)
    over a {!Ldlp_netsim} link carrying an {!Ldlp_fault.Impair} engine in
    each direction, runs a windowed echo exchange to quiescence under a
    scheduling discipline, and checks what the paper takes for granted on
    its lossless measurement LAN:

    - {b integrity} — the client receives back exactly the byte stream it
      sent (per-chunk content is seeded and index-stamped, so any
      duplicated, reordered or corrupted delivery shows up);
    - {b leak freedom} — after quiescence and teardown the shared
      {!Ldlp_buf.Pool} has zero small or cluster mbufs in use;
    - {b discipline equivalence} — Conventional and LDLP scheduling
      deliver the same bytes over the same fault sequence (the paper's
      claim that LDLP changes {e when} layers run, never {e what} they
      compute, extended to the recovery path).

    Everything is deterministic: a (seed, scenario count) pair names the
    same fault plans, the same payloads and the same outcomes on any
    machine and any domain count. *)

type scenario = {
  id : int;
  seed : int;  (** Seeds the impairment streams and payloads. *)
  plan : Ldlp_fault.Plan.t;  (** Applied to both link directions. *)
  chunks : int;
  chunk_bytes : int;
  intake_limit : int option;
      (** Overload watermark for both hosts' engines (the
          [intake_limit] of {!Ldlp_core.Engine.rx_chain}); shed frames
          must be recovered by retransmission like wire drops. *)
  crash : (float * float) list;
      (** Server crash/restart episodes [(down_at, up_at)), sorted and
          disjoint (validated as a {!Ldlp_fault.Plan.host} lifecycle).
          While down the host neither sends nor receives — the link is
          dark in both directions — and at [down_at] the frames in its
          NIC rings (volatile state) are wiped.  Socket state survives
          the restart, so TCP retransmission must recover the byte
          stream, under both disciplines, with full integrity. *)
}

val scenarios : seed:int -> count:int -> scenario list
(** The soak matrix: scenario 0 is pristine ({!Ldlp_fault.Plan.none} —
    must complete with zero retransmissions), scenario 1 is the
    acceptance chaos mix (5% loss + 2% duplication + 0.1% corruption +
    10% reordering over a 4-frame window), and the rest draw impairments
    (and occasional intake limits, down episodes and mid-transfer server
    crash/restart episodes) from a PRNG seeded by [seed].  Crash episodes
    come from an independent stream, so the fault plans drawn for a given
    (seed, count) are unchanged from the pre-crash matrix. *)

type outcome = {
  completed : bool;  (** Every echoed byte arrived before quiescence. *)
  integrity : bool;  (** Echoed stream identical to the sent stream. *)
  leak_free : bool;  (** Pool empty after teardown. *)
  retransmits : int;  (** Client + server, timeouts and fast retransmits. *)
  shed : int;  (** Frames refused by the intake watermark. *)
  echoed_bytes : int;
  completion : float;  (** Sim time when the last echoed byte arrived. *)
  dropped : int;  (** Random drops + ring-full drops, both directions. *)
  duplicated : int;
  corrupted : int;
  reordered : int;
}

type report = {
  scenario : scenario;
  conventional : outcome;
  ldlp : outcome;
  equivalent : bool;
      (** Both disciplines completed with integrity and delivered the
          same byte count. *)
}

val report_ok : report -> bool

val run_scenario : ?duplex:bool -> scenario -> report
(** Run the echo exchange twice (Conventional, then LDLP) over the
    scenario's fault plan.  Pure: no wall clock, no global RNG.

    With [duplex] (default false) each host runs both stack directions
    under one {!Ldlp_tcpmini.Host.duplex} engine: received frames enter
    the rx side and application frames are submitted at the tx entry,
    so TCP replies descend the transmit nodes of the same scheduling
    pass.  Every integrity/leak/equivalence check is unchanged — the
    duplex arrangement must put byte-identical frames on the wire. *)

val run_all : ?domains:int -> ?duplex:bool -> scenario list -> report list
(** Run scenarios through {!Ldlp_par.Pool.map}: input order, and the
    same results for any [domains]. *)

val render : report list -> string
(** Fixed-width summary table (golden-snapshotted; keep deterministic). *)

type ladder_row = {
  loss : float;
  goodput : float;  (** Echoed payload bytes per sim second (LDLP run). *)
  ladder_retransmits : int;
  ladder_completion : float;
  ok : bool;
}

val loss_ladder : seed:int -> rates:float list -> ladder_row list
(** One full-chaos-free soak per loss rate (drop only), for
    [ldlp_repro soak]: how goodput decays and retransmissions grow as the
    lossless-LAN assumption is relaxed. *)
