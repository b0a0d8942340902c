type counters = {
  icache_misses : int;
  dcache_misses : int;
  write_misses : int;
  exec_cycles : int;
  stall_cycles : int;
}

type event =
  | Fetch_code of { addr : int; len : int; misses : int; stall : int }
  | Read_data of { addr : int; len : int; misses : int }
  | Write_data of { addr : int; len : int; misses : int }
  | Execute of { cycles : int }

(* The ledger is five mutable ints, so a charge allocates nothing;
   [counters] builds a record only when asked. *)
type t = {
  icache : Cache.t;
  dcache : Cache.t;
  prefetch_discount : float;
  mutable clock_hz : float;
  mutable imisses : int;
  mutable dmisses : int;
  mutable wmisses : int;
  mutable exec : int;
  mutable stall : int;
  mutable probe : (event -> unit) option;
}

let create ?(icache = Config.paper_default) ?(dcache = Config.paper_default)
    ?(unified = false) ?(prefetch_discount = 1.0) ?(clock_hz = 100e6) () =
  if clock_hz <= 0.0 then invalid_arg "Memsys.create: clock must be positive";
  if prefetch_discount < 0.0 || prefetch_discount > 1.0 then
    invalid_arg "Memsys.create: prefetch_discount must be in [0, 1]";
  let i = Cache.create icache in
  let d = if unified then i else Cache.create dcache in
  {
    icache = i;
    dcache = d;
    prefetch_discount;
    clock_hz;
    imisses = 0;
    dmisses = 0;
    wmisses = 0;
    exec = 0;
    stall = 0;
    probe = None;
  }

let set_probe t p = t.probe <- p

let clock_hz t = t.clock_hz

let set_clock_hz t hz =
  if hz <= 0.0 then invalid_arg "Memsys.set_clock_hz: clock must be positive";
  t.clock_hz <- hz

let icache t = t.icache

let dcache t = t.dcache

let fetch_code t ~addr ~len =
  let m = Cache.touch_range t.icache ~addr ~len in
  let stall =
    if m = 0 then 0
    else begin
      let penalty = (Cache.config t.icache).Config.miss_penalty in
      (* Sequential prefetch hides part of every miss after the first in a
         straight-line fetch run. *)
      int_of_float
        (float_of_int penalty
        *. (1.0 +. (t.prefetch_discount *. float_of_int (m - 1))))
    end
  in
  t.imisses <- t.imisses + m;
  t.stall <- t.stall + stall;
  match t.probe with
  | None -> ()
  | Some f -> f (Fetch_code { addr; len; misses = m; stall })

let read_data t ~addr ~len =
  let m = Cache.touch_range t.dcache ~addr ~len in
  t.dmisses <- t.dmisses + m;
  t.stall <- t.stall + (m * (Cache.config t.dcache).Config.miss_penalty);
  match t.probe with
  | None -> ()
  | Some f -> f (Read_data { addr; len; misses = m })

let charge_read t ~addr ~len ~misses =
  if misses < 0 then invalid_arg "Memsys.charge_read: negative misses";
  t.dmisses <- t.dmisses + misses;
  t.stall <- t.stall + (misses * (Cache.config t.dcache).Config.miss_penalty);
  match t.probe with
  | None -> ()
  | Some f -> f (Read_data { addr; len; misses })

let write_data t ~addr ~len =
  let m = Cache.touch_range t.dcache ~addr ~len in
  t.wmisses <- t.wmisses + m;
  match t.probe with
  | None -> ()
  | Some f -> f (Write_data { addr; len; misses = m })

let execute t cycles =
  if cycles < 0 then invalid_arg "Memsys.execute: negative cycles";
  t.exec <- t.exec + cycles;
  match t.probe with
  | None -> ()
  | Some f -> f (Execute { cycles })

let cycles t = t.exec + t.stall

let seconds t = float_of_int (cycles t) /. t.clock_hz

let seconds_of_cycles t n = float_of_int n /. t.clock_hz

let counters t =
  {
    icache_misses = t.imisses;
    dcache_misses = t.dmisses;
    write_misses = t.wmisses;
    exec_cycles = t.exec;
    stall_cycles = t.stall;
  }

let take_counters t =
  let c = counters t in
  t.imisses <- 0;
  t.dmisses <- 0;
  t.wmisses <- 0;
  t.exec <- 0;
  t.stall <- 0;
  c

let cold t =
  Cache.flush t.icache;
  Cache.flush t.dcache
