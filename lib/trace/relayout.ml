module WS = Ldlp_cache.Working_set

(* Mapping from the original sparse code address space to the packed one:
   an array of (old_start, len, new_start), sorted by old_start. *)
type mapping = { olds : int array; lens : int array; news : int array }

let build_mapping trace =
  let code = WS.create () in
  Tracebuf.iter trace (fun e ->
      if e.Event.kind = Event.Code then
        WS.touch code ~addr:e.Event.addr ~len:e.Event.len);
  let ranges = ref [] in
  WS.iter_ranges code (fun addr len -> ranges := (addr, len) :: !ranges);
  let ranges = Array.of_list (List.rev !ranges) in
  let n = Array.length ranges in
  let olds = Array.make n 0 and lens = Array.make n 0 and news = Array.make n 0 in
  let cursor = ref 0 in
  Array.iteri
    (fun i (addr, len) ->
      olds.(i) <- addr;
      lens.(i) <- len;
      news.(i) <- !cursor;
      cursor := !cursor + len)
    ranges;
  { olds; lens; news }

(* Index of the mapping range containing [addr]. *)
let find m addr =
  let lo = ref 0 and hi = ref (Array.length m.olds - 1) in
  let result = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if addr < m.olds.(mid) then hi := mid - 1
    else if addr >= m.olds.(mid) + m.lens.(mid) then lo := mid + 1
    else begin
      result := mid;
      lo := !hi + 1
    end
  done;
  !result

let remap m addr =
  match find m addr with
  | -1 -> addr (* untouched byte: cannot happen for code events *)
  | i -> m.news.(i) + (addr - m.olds.(i))

let dense trace =
  let m = build_mapping trace in
  let out = Tracebuf.create () in
  Tracebuf.iter trace (fun e ->
      match e.Event.kind with
      | Event.Load | Event.Store -> Tracebuf.add out e
      | Event.Code ->
        (* A code reference always lies within one touched range, but split
           defensively at range boundaries. *)
        let rec emit addr len =
          if len > 0 then begin
            match find m addr with
            | -1 -> Tracebuf.add out { e with Event.addr; len }
            | i ->
              let range_end = m.olds.(i) + m.lens.(i) in
              let take = min len (range_end - addr) in
              Tracebuf.add out { e with Event.addr = remap m addr; len = take };
              emit (addr + take) (len - take)
          end
        in
        emit e.Event.addr e.Event.len);
  out

type comparison = {
  sparse_lines : int;
  dense_lines : int;
  sparse_imisses : int;
  dense_imisses : int;
  line_saving : float;
}

let replay_code_misses cache trace =
  let c = Ldlp_cache.Cache.create cache in
  Tracebuf.iter trace (fun e ->
      if e.Event.kind = Event.Code then
        ignore (Ldlp_cache.Cache.touch_range c ~addr:e.Event.addr ~len:e.Event.len));
  Ldlp_cache.Cache.misses c

let code_lines trace ~line_bytes =
  let ws = WS.create () in
  Tracebuf.iter trace (fun e ->
      if e.Event.kind = Event.Code then
        WS.touch ws ~addr:e.Event.addr ~len:e.Event.len);
  WS.lines ws ~line_bytes

let miss_comparison trace =
  let cache = Ldlp_cache.Config.paper_default in
  let packed = dense trace in
  let line_bytes = cache.Ldlp_cache.Config.line_bytes in
  let sparse_lines = code_lines trace ~line_bytes in
  let dense_lines = code_lines packed ~line_bytes in
  {
    sparse_lines;
    dense_lines;
    sparse_imisses = replay_code_misses cache trace;
    dense_imisses = replay_code_misses cache packed;
    line_saving =
      (if sparse_lines = 0 then 0.0
       else 1.0 -. (float_of_int dense_lines /. float_of_int sparse_lines));
  }
