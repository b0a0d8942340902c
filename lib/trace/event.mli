(** Memory-reference trace events.

    The paper's tracing apparatus logged every memory reference of the
    NetBSD TCP receive-and-acknowledge path, classified by kind
    (instruction fetch, data load, data store), by protocol-stack category,
    and by trace phase (Table 2's entry / device interrupt / exit).  These
    events are what {!Analyze} consumes to rebuild Tables 1 and 3 and the
    Figure 1 map. *)

type kind = Code | Load | Store

type phase = Entry | Packet_intr | Exit

type t = {
  kind : kind;
  phase : phase;
  category : Funcmap.category;
  addr : int;
  len : int;
  fn : string;  (** Function name for code references; [""] for data. *)
}

val phase_name : phase -> string

val phases : phase list
