(* Per-layer metric sheet.

   One sheet describes one instrumented component (a scheduler stack, the
   runtime, the cycle model).  Everything on it is plain mutable integer state so
   the recording operations allocate nothing, and every field is a sum,
   max or fixed-geometry histogram so two sheets with the same shape
   merge deterministically — the property [Ldlp_par.Pool] needs to
   combine per-domain sheets.  A component records only when its caller
   attached a sheet, so the one switch is the sheet itself. *)

type layer = {
  l_name : string;
  mutable handled : int;
  mutable quanta : int;
      (* times this layer started running after a different layer ran:
         the number of code working-set switches into this layer *)
  mutable exec_cycles : int;
  mutable stall_cycles : int;
  mutable imisses : int;
  mutable dmisses : int;
  mutable wmisses : int;
  mutable queue_peak : int;
  mutable minor_words : int;
}

type t = {
  label : string;
  layers : layer array;
  batch : Histogram.t;
  depth : Histogram.t;
  latency_ns : Histogram.t;
  mutable messages : int;
  mutable batches : int;
  mutable last_layer : int;
  mutable scalars : (string * int ref) list;  (* registration order *)
}

let fresh_layer name =
  {
    l_name = name;
    handled = 0;
    quanta = 0;
    exec_cycles = 0;
    stall_cycles = 0;
    imisses = 0;
    dmisses = 0;
    wmisses = 0;
    queue_peak = 0;
    minor_words = 0;
  }

let create ~label ~layer_names =
  {
    label;
    layers = Array.of_list (List.map fresh_layer layer_names);
    batch = Histogram.create ();
    depth = Histogram.create ();
    latency_ns = Histogram.create ();
    messages = 0;
    batches = 0;
    last_layer = -1;
    scalars = [];
  }

let label t = t.label

let nlayers t = Array.length t.layers

let layer t i = t.layers.(i)

let layer_names t = Array.to_list (Array.map (fun l -> l.l_name) t.layers)

let messages t = t.messages

let batches t = t.batches

let batch_hist t = t.batch

let depth_hist t = t.depth

let latency_hist t = t.latency_ns

(* ---------- setup-time registration ---------- *)

(* The find path is allocation-free (no option, no closure) so components
   that register their scalars inside a run — the runtime, the cycle model
   — add nothing to an already-warmed sheet's allocation profile. *)
let rec find_scalar name = function
  | (n, r) :: rest -> if String.equal n name then r else find_scalar name rest
  | [] -> raise_notrace Not_found

let scalar t name =
  match find_scalar name t.scalars with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    t.scalars <- t.scalars @ [ (name, r) ];
    r

let scalars t = List.map (fun (name, r) -> (name, !r)) t.scalars

(* ---------- hot-path recorders ---------- *)

let arrival t ~depth =
  t.messages <- t.messages + 1;
  Histogram.add t.depth depth

let batch_run t n =
  t.batches <- t.batches + 1;
  Histogram.add t.batch n

let handled t i =
  let l = t.layers.(i) in
  l.handled <- l.handled + 1;
  if t.last_layer <> i then begin
    l.quanta <- l.quanta + 1;
    t.last_layer <- i
  end

let queue_depth t i n =
  let l = t.layers.(i) in
  if n > l.queue_peak then l.queue_peak <- n

let charge t i ~exec ~stall ~imisses ~dmisses ~wmisses =
  let l = t.layers.(i) in
  l.exec_cycles <- l.exec_cycles + exec;
  l.stall_cycles <- l.stall_cycles + stall;
  l.imisses <- l.imisses + imisses;
  l.dmisses <- l.dmisses + dmisses;
  l.wmisses <- l.wmisses + wmisses

let alloc t i words =
  let l = t.layers.(i) in
  l.minor_words <- l.minor_words + words

let latency_ns t ns = Histogram.add t.latency_ns ns

(* ---------- totals / merge / render ---------- *)

type totals = {
  t_handled : int;
  t_exec_cycles : int;
  t_stall_cycles : int;
  t_imisses : int;
  t_dmisses : int;
  t_wmisses : int;
  t_minor_words : int;
}

let totals t =
  Array.fold_left
    (fun acc l ->
      {
        t_handled = acc.t_handled + l.handled;
        t_exec_cycles = acc.t_exec_cycles + l.exec_cycles;
        t_stall_cycles = acc.t_stall_cycles + l.stall_cycles;
        t_imisses = acc.t_imisses + l.imisses;
        t_dmisses = acc.t_dmisses + l.dmisses;
        t_wmisses = acc.t_wmisses + l.wmisses;
        t_minor_words = acc.t_minor_words + l.minor_words;
      })
    {
      t_handled = 0;
      t_exec_cycles = 0;
      t_stall_cycles = 0;
      t_imisses = 0;
      t_dmisses = 0;
      t_wmisses = 0;
      t_minor_words = 0;
    }
    t.layers

let merge_into ~dst src =
  if layer_names dst <> layer_names src then
    invalid_arg "Metrics.merge_into: layer shape mismatch";
  Array.iteri
    (fun i (s : layer) ->
      let d = dst.layers.(i) in
      d.handled <- d.handled + s.handled;
      d.quanta <- d.quanta + s.quanta;
      d.exec_cycles <- d.exec_cycles + s.exec_cycles;
      d.stall_cycles <- d.stall_cycles + s.stall_cycles;
      d.imisses <- d.imisses + s.imisses;
      d.dmisses <- d.dmisses + s.dmisses;
      d.wmisses <- d.wmisses + s.wmisses;
      d.queue_peak <- max d.queue_peak s.queue_peak;
      d.minor_words <- d.minor_words + s.minor_words)
    src.layers;
  Histogram.merge_into ~dst:dst.batch src.batch;
  Histogram.merge_into ~dst:dst.depth src.depth;
  Histogram.merge_into ~dst:dst.latency_ns src.latency_ns;
  dst.messages <- dst.messages + src.messages;
  dst.batches <- dst.batches + src.batches;
  dst.last_layer <- -1;
  List.iter (fun (name, r) -> scalar dst name := !(scalar dst name) + !r) src.scalars

(* The rendering is fully deterministic for a deterministic run:
   simulated cycles, cache misses, batch/queue/latency histograms.  Real
   allocation words vary with compiler version and machine, so they are
   left out. *)
let render t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "observability: %s\n" t.label;
  if Array.length t.layers > 0 then begin
    add "%-10s %9s %8s %12s %12s %9s %9s %9s %7s\n" "layer" "handled" "quanta"
      "exec-cyc" "stall-cyc" "i-miss" "d-miss" "w-miss" "q-peak";
    Array.iter
      (fun l ->
        add "%-10s %9d %8d %12d %12d %9d %9d %9d %7d\n" l.l_name l.handled
          l.quanta l.exec_cycles l.stall_cycles l.imisses l.dmisses l.wmisses
          l.queue_peak)
      t.layers;
    let s = totals t in
    add "%-10s %9d %8s %12d %12d %9d %9d %9d %7s\n" "total" s.t_handled "-"
      s.t_exec_cycles s.t_stall_cycles s.t_imisses s.t_dmisses s.t_wmisses "-";
    if t.messages > 0 then
      add "per-message: i-miss %.2f  d-miss %.2f  cycles %.1f\n"
        (float_of_int s.t_imisses /. float_of_int t.messages)
        (float_of_int s.t_dmisses /. float_of_int t.messages)
        (float_of_int (s.t_exec_cycles + s.t_stall_cycles)
        /. float_of_int t.messages)
  end;
  add "messages=%d batches=%d\n" t.messages t.batches;
  add "batch size         %s\n" (Histogram.summary t.batch);
  add "entry queue depth  %s\n" (Histogram.summary t.depth);
  add "latency (ns)       %s\n" (Histogram.summary t.latency_ns);
  List.iter (fun (name, r) -> add "%-18s %d\n" name !r) t.scalars;
  Buffer.contents b
