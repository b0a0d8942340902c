module Cache = Ldlp_cache

(* Execution-cost calibration.  Per-byte costs reflect the routines'
   structure (the unrolled routine does ~half the loop overhead per byte);
   fixed overheads cover call/setup.  Chosen so the modelled curves match
   Figure 8's anchors: warm-cache crossover near 100 bytes, cold-cache
   crossover near 900 bytes, fill costs ~426 vs ~176 cycles. *)
let elaborate_overhead = 100.0

let elaborate_per_byte = 0.55

let simple_overhead = 60.0

let simple_per_byte = 1.08

(* Active code: the bytes of the routine actually executed for a given
   message size.  The elaborate routine's 32-byte unrolled main loop is
   only entered for messages past the small-message path. *)
let active_code ~routine ~msg_bytes =
  match routine with
  | `Simple -> Ldlp_packet.Cksum.code_bytes_simple
  | `Elaborate ->
    if msg_bytes <= 64 then 680 else Ldlp_packet.Cksum.code_bytes_unrolled

let exec_cycles ~routine ~msg_bytes =
  let n = float_of_int msg_bytes in
  match routine with
  | `Simple -> simple_overhead +. (simple_per_byte *. n)
  | `Elaborate -> elaborate_overhead +. (elaborate_per_byte *. n)

let miss_penalty = 20

(* Run the routine's footprint through a direct-mapped 8 KB I-cache. *)
let time ~routine ~cache ~msg_bytes =
  if msg_bytes < 0 then invalid_arg "Cksum_study.time: negative size";
  let icache = Cache.Cache.create (Cache.Config.v ~miss_penalty ()) in
  let active = active_code ~routine ~msg_bytes in
  (match cache with
  | `Cold -> ()
  | `Warm ->
    (* Prime the cache with a first call. *)
    ignore (Cache.Cache.touch_range icache ~addr:0 ~len:active));
  let misses = Cache.Cache.touch_range icache ~addr:0 ~len:active in
  exec_cycles ~routine ~msg_bytes +. float_of_int (misses * miss_penalty)

type point = {
  msg_bytes : int;
  elaborate_warm : float;
  elaborate_cold : float;
  simple_warm : float;
  simple_cold : float;
}

let point msg_bytes =
  {
    msg_bytes;
    elaborate_warm = time ~routine:`Elaborate ~cache:`Warm ~msg_bytes;
    elaborate_cold = time ~routine:`Elaborate ~cache:`Cold ~msg_bytes;
    simple_warm = time ~routine:`Simple ~cache:`Warm ~msg_bytes;
    simple_cold = time ~routine:`Simple ~cache:`Cold ~msg_bytes;
  }

let series () = List.init 63 (fun i -> point (16 * i))

let cold_crossover () =
  let rec find n =
    if n > 4096 then n
    else begin
      let p = point n in
      if p.elaborate_cold < p.simple_cold then n else find (n + 8)
    end
  in
  (* Start past the small-message path so we find the asymptotic
     crossover. *)
  find 72

let fill_cost ~routine ~msg_bytes =
  time ~routine ~cache:`Cold ~msg_bytes -. time ~routine ~cache:`Warm ~msg_bytes
