type kind = Code | Load | Store

type phase = Entry | Packet_intr | Exit

type t = {
  kind : kind;
  phase : phase;
  category : Funcmap.category;
  addr : int;
  len : int;
  fn : string;
}

let phase_name = function
  | Entry -> "entry"
  | Packet_intr -> "pkt intr"
  | Exit -> "exit"

let phases = [ Entry; Packet_intr; Exit ]
