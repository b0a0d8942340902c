(* Reference LRU model: one list per set, MRU first.  Everything is a
   linear scan over a list — no packed arrays, no in-place rotation, no
   special direct-mapped fast path — so the replacement policy is visibly
   the textbook one. *)

type t = {
  cfg : Ldlp_cache.Config.t;
  sets : int;
  ways : int;
  state : int list array;  (* state.(set): resident lines, MRU first *)
  mutable hits : int;
  mutable misses : int;
}

let create cfg =
  let sets = Ldlp_cache.Config.sets cfg in
  {
    cfg;
    sets;
    ways = cfg.Ldlp_cache.Config.associativity;
    state = Array.make sets [];
    hits = 0;
    misses = 0;
  }

let set_of t line = line mod t.sets

let rec take n = function
  | [] -> []
  | _ when n = 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let access_line t line =
  let s = set_of t line in
  let ways = t.state.(s) in
  if List.mem line ways then begin
    t.hits <- t.hits + 1;
    t.state.(s) <- line :: List.filter (fun l -> l <> line) ways;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.state.(s) <- take t.ways (line :: ways);
    false
  end

let line_of_addr t addr = Ldlp_cache.Config.line_of_addr t.cfg addr

let access t addr = access_line t (line_of_addr t addr)

let touch_range t ~addr ~len =
  if len <= 0 then 0
  else begin
    let first = line_of_addr t addr in
    let last = line_of_addr t (addr + len - 1) in
    let misses = ref 0 in
    for line = first to last do
      if not (access_line t line) then incr misses
    done;
    !misses
  end

let resident t addr =
  let line = line_of_addr t addr in
  List.mem line t.state.(set_of t line)

let flush t = Array.fill t.state 0 t.sets []

let occupancy t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.state

let hits t = t.hits

let misses t = t.misses

let resident_lines t =
  Array.fold_left (fun acc l -> List.rev_append l acc) [] t.state
  |> List.sort compare

(* ---------- Differential driver ---------- *)

type op =
  | Access of int
  | Access_line of int
  | Touch_range of { addr : int; len : int }
  | Probe of int
  | Flush

let pp_op ppf = function
  | Access a -> Format.fprintf ppf "access %#x" a
  | Access_line l -> Format.fprintf ppf "access_line %d" l
  | Touch_range { addr; len } ->
    Format.fprintf ppf "touch_range %#x+%d" addr len
  | Probe a -> Format.fprintf ppf "probe %#x" a
  | Flush -> Format.fprintf ppf "flush"

let random_ops ~rng ?hot_lines ?(cold_span = 1 lsl 20) n =
  let module R = Ldlp_sim.Rng in
  (* Default hot set: sized by the caller per config; 3x a typical 256-line
     cache keeps reuse high enough that both hits and evictions happen. *)
  let hot = match hot_lines with Some h -> max 1 h | None -> 768 in
  List.init n (fun _ ->
      match R.int rng 100 with
      | r when r < 55 -> Access_line (R.int rng hot)
      | r when r < 70 -> Access_line (R.int rng cold_span)
      | r when r < 80 -> Access (R.int rng (hot * 32))
      | r when r < 88 ->
        Touch_range { addr = R.int rng (hot * 32); len = R.int rng 256 }
      (* Region-sized ranges, as the simulators touch them: one layer's
         6 KB of code, and anything up to the whole hot set, so a single
         call can wrap the set index. *)
      | 88 -> Touch_range { addr = R.int rng (hot * 32); len = 6144 }
      | 89 ->
        Touch_range { addr = R.int rng (hot * 32); len = 1 + R.int rng (hot * 32) }
      | r when r < 98 -> Probe (R.int rng (hot * 32))
      | _ -> Flush)

type divergence = { step : int; op : op; detail : string }

let pp_divergence ppf d =
  Format.fprintf ppf "step %d (%a): %s" d.step pp_op d.op d.detail

let subject_lines subject =
  let acc = ref [] in
  Ldlp_cache.Cache.iter_resident subject (fun l -> acc := l :: !acc);
  List.sort compare !acc

let differential ?(state_every = 64) cfg ops =
  let subject = Ldlp_cache.Cache.create cfg in
  let oracle = create cfg in
  let module C = Ldlp_cache.Cache in
  let fail step op detail = Error { step; op; detail } in
  let states_agree step op =
    if C.occupancy subject <> occupancy oracle then
      fail step op
        (Printf.sprintf "occupancy: cache %d, oracle %d" (C.occupancy subject)
           (occupancy oracle))
    else begin
      let s = subject_lines subject and o = resident_lines oracle in
      if s <> o then
        fail step op
          (Printf.sprintf "resident sets differ (%d vs %d lines)"
             (List.length s) (List.length o))
      else Ok ()
    end
  in
  let rec go step = function
    | [] -> (
      match states_agree step Flush with
      | Ok () -> Ok (step - 1)
      | Error d -> Error { d with detail = "final state: " ^ d.detail })
    | op :: rest -> (
      let outcome =
        match op with
        | Access a ->
          let s = C.access subject a and o = access oracle a in
          if s <> o then
            fail step op (Printf.sprintf "hit/miss: cache %b, oracle %b" s o)
          else Ok ()
        | Access_line l ->
          let s = C.access_line subject l and o = access_line oracle l in
          if s <> o then
            fail step op (Printf.sprintf "hit/miss: cache %b, oracle %b" s o)
          else Ok ()
        | Touch_range { addr; len } ->
          let s = C.touch_range subject ~addr ~len
          and o = touch_range oracle ~addr ~len in
          if s <> o then
            fail step op (Printf.sprintf "misses: cache %d, oracle %d" s o)
          else Ok ()
        | Probe a ->
          let s = C.resident subject a and o = resident oracle a in
          if s <> o then
            fail step op (Printf.sprintf "resident: cache %b, oracle %b" s o)
          else Ok ()
        | Flush ->
          C.flush subject;
          flush oracle;
          Ok ()
      in
      match outcome with
      | Error _ as e -> e
      | Ok () ->
        if C.hits subject <> hits oracle || C.misses subject <> misses oracle
        then
          fail step op
            (Printf.sprintf "counters: cache %d/%d, oracle %d/%d"
               (C.hits subject) (C.misses subject) (hits oracle)
               (misses oracle))
        else begin
          match
            if step mod state_every = 0 then states_agree step op else Ok ()
          with
          | Error _ as e -> e
          | Ok () -> go (step + 1) rest
        end)
  in
  go 1 ops
