(* What every workload reports, and the shared shape of a run.

   The metric lists here must match BENCHMARK.json (names and units); the
   smoke test checks that every workload prints each of them, and that the
   per-layer map below names only declared metrics and workloads. *)

(* [moves] and [on] are set for per-layer metrics only: the end-to-end
   metrics a change in this layer should move, and the workloads on which
   it should.  A per-layer metric that moves nothing is a guard: the
   benchmark's own cost, or a value that must not change. *)
type metric = { name : string; unit_ : string; moves : string list; on : string list }

let e2e name unit_ = { name; unit_; moves = []; on = [] }

(* Printed by every untraced run.  For the two real stacks an operation is
   a call lifecycle (sig-open) or an RPC (tcp-rr) and the latencies are per
   message or RPC; for the two simulators an operation is a simulated
   message (fig6-sweep) or a completed call (mesh-storm) and a latency
   sample is the time of one simulator invocation.  Every time is scaled
   to a host of the reference speed (Calib). *)
let end_to_end =
  [
    e2e "setup_s" "s";
    e2e "peak_rss_mb" "MB";
    e2e "ops_per_s" "1/s";
    e2e "lat_p50_us.light" "us";
    e2e "lat_p90_us.light" "us";
    e2e "lat_p50_us.heavy" "us";
  ]

let workloads = [ "sig-open"; "tcp-rr"; "fig6-sweep"; "mesh-storm" ]

let real = [ "sig-open"; "tcp-rr" ]

let latencies = [ "lat_p50_us.light"; "lat_p90_us.light"; "lat_p50_us.heavy" ]

(* Printed by every traced run.  Every workload prints every name; a layer
   the workload does not run reads 0.  Only the two generic time metrics
   are times: a layer's cost is its share of the traced time, so a layer
   that is absent is a true 0, not a missing time. *)
let per_layer =
  let group ~moves ~on l = List.map (fun (name, unit_) -> { name; unit_; moves; on }) l in
  List.concat
    [
      group ~moves:[] ~on:workloads [ ("gen.ns_per_op", "ns") ];
      group ~moves:[ "ops_per_s" ] ~on:workloads [ ("system.ns_per_op", "ns") ];
      group ~moves:[] ~on:workloads [ ("trace.overhead_pct", "%") ];
      group ~moves:[ "lat_p90_us.light"; "lat_p50_us.heavy" ] ~on:[ "sig-open" ]
        [
          ("gc.minor_words_per_op", "words");
          ("gc.promoted_words_per_op", "words");
          ("gc.major_collections_per_s", "1/s");
        ];
      group ~moves:[ "ops_per_s"; "lat_p50_us.heavy" ] ~on:real
        [ ("engine.mean_batch", "count"); ("engine.reloads_per_msg", "count") ];
      group ~moves:[ "lat_p50_us.light" ] ~on:real [ ("engine.self_pct", "%") ];
      group ~moves:("ops_per_s" :: latencies) ~on:[ "sig-open" ]
        (List.concat_map
           (fun l -> [ ("sig." ^ l ^ ".self_pct", "%"); ("sig." ^ l ^ ".words_per_msg", "words") ])
           [ "link"; "sscop"; "q93b"; "call" ]
        @ [ ("sig.calls_live_peak", "count") ]);
      group ~moves:latencies ~on:[ "tcp-rr" ]
        (List.concat_map
           (fun l ->
             [ ("tcp.srv." ^ l ^ ".self_pct", "%"); ("tcp.srv." ^ l ^ ".words_per_msg", "words") ])
           [ "ether"; "ip"; "tcp"; "ether-tx"; "ip-tx"; "tcp-tx" ]
        @ [ ("tcp.cli.self_pct", "%"); ("tcp.app.self_pct", "%") ]);
      group ~moves:[ "ops_per_s" ] ~on:[ "tcp-rr" ]
        [ ("tcp.fastpath_ratio", "ratio"); ("tcp.acks_per_rpc", "count") ];
      group ~moves:[ "lat_p50_us.light"; "lat_p50_us.heavy" ] ~on:[ "tcp-rr" ]
        [ ("pcb.cache_hit_ratio", "ratio"); ("pcb.table_hit_ratio", "ratio") ];
      group ~moves:[] ~on:real [ ("buf.pool_outstanding_end", "count") ];
      group ~moves:[ "ops_per_s" ] ~on:[ "fig6-sweep" ]
        [ ("memsys.refs_per_msg", "count"); ("par.efficiency", "ratio") ];
      group ~moves:[] ~on:[ "fig6-sweep" ]
        [ ("model.imiss_per_msg.conv", "count"); ("model.imiss_per_msg.ldlp", "count") ];
      group ~moves:[ "ops_per_s" ] ~on:[ "mesh-storm" ]
        [
          ("shard.speedup", "ratio");
          ("shard.cpu_imbalance", "ratio");
          ("mesh.frames_per_call", "count");
          ("fault.drop_ratio", "ratio");
          ("mesh.retries_per_call", "count");
        ];
    ]

type mode = {
  seed : int;
  seconds : float;  (** Measurement budget of the run. *)
  quick : bool;  (** Smoke mode: tiny inputs, correctness only. *)
  trace : bool;
}

(* A run's outcome, filled in by a workload. *)
type out = {
  mutable ok : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable values : (string * float * int) list;  (** name, value, samples *)
}

let create () = { ok = true; attempted = 0; failed = 0; values = [] }

let set out ?(samples = 1) name v = out.values <- (name, v, samples) :: out.values

let check out what cond =
  if not cond then begin
    out.ok <- false;
    prerr_endline ("ldlp_bench: check failed: " ^ what)
  end

(* Progress and diagnostics on stderr; quiet in smoke mode. *)
let verbose = ref true

let info fmt =
  if !verbose then Printf.kfprintf (fun oc -> output_char oc '\n') stderr fmt
  else Printf.ifprintf stderr fmt

(* Every metric of the mode's list, in list order; an unset one is a bug in
   the workload and fails the run. *)
let result out ~trace =
  let wanted = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun m ->
        match List.find_opt (fun (n, _, _) -> n = m.name) out.values with
        | Some (_, v, samples) when Float.is_finite v -> (m, v, samples)
        | Some _ ->
          check out (m.name ^ " is not a finite number") false;
          (m, 0., 0)
        | None ->
          check out (m.name ^ " was not measured") false;
          (m, 0., 0))
      wanted
  in
  let json =
    Json.Obj
      [
        ("correct", Json.Bool out.ok);
        ("attempted", Json.Num (float_of_int (max 1 out.attempted)));
        ("failed", Json.Num (float_of_int out.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (m, v, _) ->
                 (m.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit_) ]))
               metrics) );
      ]
  in
  (metrics, json)

(* Run [f] until [seconds] have passed and it has run at least [min]
   times. *)
let repeat ~seconds ~min f =
  let t0 = Clock.now_ns () in
  let n = ref 0 in
  while !n < min || Clock.seconds_since t0 < seconds do
    f !n;
    incr n
  done

let median l = Lat.median (Array.of_list l)

(* The median of the normalised times of repeated set-ups, set as
   [setup_s]: at least seven, and as many more as fit in two seconds (one
   in smoke mode); returns the last one's value.  The medians of five
   spread by 10-27% from run to run.  Like every measured unit, each
   repetition starts right after a kernel run on a collected heap (Calib),
   so that it neither pays for collecting the previous one's garbage nor
   inherits a heap whose later growth, and so the run's peak RSS, turns on
   the timing of a GC slice; the previous one's value is dropped first. *)
let timed_setup (mode : mode) out cal f =
  let seconds, min = if mode.quick then (0., 1) else (2., 7) in
  let times = ref [] and last = ref None in
  repeat ~seconds ~min (fun _ ->
      last := None;
      let r, ns = Calib.time cal f in
      last := Some r;
      times := (ns *. 1e-9) :: !times);
  set out "setup_s" (median !times);
  Option.get !last

type gc = { minor : float; promoted : float; majors : int; at : int }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = s.Gc.minor_words;
    promoted = s.Gc.promoted_words;
    majors = s.Gc.major_collections;
    at = Clock.now_ns ();
  }

(* GC cost per operation between two snapshots. *)
let set_gc out ~ops a b =
  let ops = float_of_int (max 1 ops) in
  set out "gc.minor_words_per_op" ((b.minor -. a.minor) /. ops);
  set out "gc.promoted_words_per_op" ((b.promoted -. a.promoted) /. ops);
  set out "gc.major_collections_per_s"
    (float_of_int (b.majors - a.majors) /. (float_of_int (b.at - a.at) *. 1e-9))

let ratio a b = if b = 0. then 0. else a /. b

let pct a b = 100. *. ratio a b

let us_of_ns ns = float_of_int ns /. 1000.

(* One open-loop sub-run's latencies, in ns of reference time. *)
type open_summary = { n : int; p50 : int; p90 : int; p95 : int; p99 : int; p999 : int }

let summarise lat =
  let s = Lat.sorted lat in
  let p permille = Lat.percentile s ~permille in
  { n = Array.length s; p50 = p 500; p90 = p 900; p95 = p 950; p99 = p 990; p999 = p 999 }

(* The real stacks' latency metrics: the medians, over a run's sub-runs, of
   each sub-run's p50, and at the light rate of its p90.  No percentile
   above the p50 repeated from run to run at the heavy rates: across ten
   runs on the reference host sig-open's p90 at 40,000 calls/s read 6-12
   us, and tcp-rr's p90 spread by 7-13% and its p95 by 12-16%.  The
   medians of every sub-run percentile are printed, with their sample
   counts. *)
let set_open_latency out ~phase (subs : open_summary list) =
  let med f = median (List.map (fun s -> float_of_int (f s)) subs) /. 1000. in
  let samples = List.fold_left (fun a s -> a + s.n) 0 subs in
  set out ~samples ("lat_p50_us." ^ phase) (med (fun s -> s.p50));
  if phase = "light" then set out ~samples "lat_p90_us.light" (med (fun s -> s.p90));
  let per_sub = samples / List.length subs in
  info "  %s: %d samples in %d sub-runs; per sub-run median p50 %.2f us, p90 %.2f us, p95 %.2f us, p99 %.1f us (%d beyond), p999 %.1f us (%d beyond)"
    phase samples (List.length subs) (med (fun s -> s.p50)) (med (fun s -> s.p90))
    (med (fun s -> s.p95)) (med (fun s -> s.p99)) (per_sub / 100) (med (fun s -> s.p999))
    (per_sub / 1000)

(* The open loops' clock, in ns of reference busy time.  It advances by
   the wall time of each iteration of the loop (its injections and an
   engine step) over the host's factor (Calib), and when the stack is idle
   it jumps to the next due time.  A host stall thus delays the messages it
   falls among, as on a loaded host, but not one that falls while the
   stack waits for work; on a shared host those would set the light rate's
   latencies. *)
module Vclock = struct
  type t = { scale : float; mutable now : int; mutable wall : int }

  let create ~factor = { scale = 1. /. factor; now = 0; wall = 0 }

  let idle_until t due = if due > t.now then t.now <- due

  (* Begin an iteration; its time at the start. *)
  let start t =
    t.wall <- Clock.now_ns ();
    t.now

  (* The time now, during an iteration. *)
  let read t = t.now + int_of_float (float_of_int (Clock.now_ns () - t.wall) *. t.scale)

  let stop t = t.now <- read t
end

(* A burst of [sub_runs] closed-loop sub-runs (each returns the operations
   it completed) between two kernel runs: their normalised rate. *)
let sat_rate cal ~sub_runs closed =
  let ops, ns =
    Calib.time cal (fun () ->
        let n = ref 0 in
        for _ = 1 to sub_runs do
          n := !n + closed ()
        done;
        !n)
  in
  float_of_int ops /. (ns *. 1e-9)

(* The real stacks' untraced run: a timed set-up, then cycles of one burst
   of [sat_per_cycle] closed-loop sub-runs and one open-loop sub-run at
   each rate (each returns its summary), for the run's budget. *)
let real_stack_run (mode : mode) out ~setup ~sat_per_cycle ~closed ~open_loop =
  let cal = Calib.create ~quick:mode.quick in
  let env = timed_setup mode out cal setup in
  let rates = ref [] and light = ref [] and heavy = ref [] in
  repeat ~seconds:mode.seconds ~min:2 (fun _ ->
      rates := sat_rate cal ~sub_runs:sat_per_cycle (fun () -> closed env) :: !rates;
      light := Calib.scaled cal (fun ~factor -> open_loop env ~factor "light") :: !light;
      heavy := Calib.scaled cal (fun ~factor -> open_loop env ~factor "heavy") :: !heavy);
  set out ~samples:(List.length !rates) "ops_per_s" (median !rates);
  set_open_latency out ~phase:"light" !light;
  set_open_latency out ~phase:"heavy" !heavy;
  set out "peak_rss_mb" (Clock.peak_rss_mb ())

(* Saturation for the traced run: bursts of closed-loop sub-runs for
   [seconds], at least three; their median rate and the median host
   factor, to normalise traced times with. *)
let saturation cal ~seconds ~sub_runs closed =
  let rates = ref [] and factors = ref [] in
  repeat ~seconds ~min:3 (fun _ ->
      rates := sat_rate cal ~sub_runs closed :: !rates;
      factors := Calib.factor cal :: !factors);
  (median !rates, median !factors)

(* The simulators' untraced run: a timed set-up, then cycles that run every
   invocation of every phase once, each followed by a kernel run.  An
   invocation returns its work (simulated messages; completed calls).
   [ops_per_s] is the median over the cycles of the cycle's work over its
   normalised time.  A latency metric is, as on the real stacks, the median
   over the cycles of a percentile of the cycle's normalised invocation
   times in the phase.  Pooled over the run instead, the light p90 was set
   by the few slowest of some thirty storms and spread by 13-15%. *)
let simulator_run (mode : mode) out ~setup ~phases =
  let cal = Calib.create ~quick:mode.quick in
  let phases = phases (timed_setup mode out cal setup) in
  let rates = ref [] and cycles = List.map (fun (phase, _) -> (phase, ref [])) phases in
  repeat ~seconds:mode.seconds ~min:2 (fun _ ->
      let work = ref 0 and ns = ref 0. in
      List.iter2
        (fun (_, invocations) (_, per_cycle) ->
          let times =
            List.map
              (fun inv ->
                let w, t = Calib.time cal inv in
                work := !work + w;
                ns := !ns +. t;
                t)
              invocations
          in
          per_cycle := Array.of_list times :: !per_cycle)
        phases cycles;
      rates := (float_of_int !work /. (!ns *. 1e-9)) :: !rates);
  set out ~samples:(List.length !rates) "ops_per_s" (median !rates);
  List.iter
    (fun (phase, per_cycle) ->
      let samples = List.fold_left (fun a t -> a + Array.length t) 0 !per_cycle in
      let med permille =
        median (List.map (fun t -> Lat.quantile t ~permille /. 1000.) !per_cycle)
      in
      set out ~samples ("lat_p50_us." ^ phase) (med 500);
      if phase = "light" then set out ~samples "lat_p90_us.light" (med 900))
    cycles;
  set out "peak_rss_mb" (Clock.peak_rss_mb ())

(* Zero the per-layer metrics of layers this workload does not run, named
   by prefix; any other metric left unset fails the run. *)
let absent out prefixes =
  List.iter
    (fun m ->
      if List.exists (fun p -> String.starts_with ~prefix:p m.name) prefixes then
        set out m.name 0.)
    per_layer
