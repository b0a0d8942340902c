type machine = {
  icache_bytes : int;
  dcache_bytes : int;
  line_bytes : int;
  miss_penalty : int;
  clock_hz : float;
}

let paper_machine =
  {
    icache_bytes = 8192;
    dcache_bytes = 8192;
    line_bytes = 32;
    miss_penalty = 20;
    clock_hz = 100e6;
  }

type stack = {
  layer_code_bytes : int list;
  layer_data_bytes : int list;
  msg_bytes : int;
  cycles_per_msg : int;
}

type recommendation = {
  message_class : [ `Large_message | `Small_message ];
  batch : int;
  conv_misses_per_msg : float;
  ldlp_misses_per_msg : float;
  conv_cycles_per_msg : float;
  ldlp_cycles_per_msg : float;
  speedup : float;
  max_rate_conv : float;
  max_rate_ldlp : float;
}

let lines m bytes = (bytes + m.line_bytes - 1) / m.line_bytes

let total xs = List.fold_left ( + ) 0 xs

(* Estimated cold-start line fetches per message in blocks of [batch].

   Code and per-layer data: if the whole stack fits in the I-cache it stays
   resident and (steady state) costs nothing; otherwise each layer is
   refetched every time it runs, i.e. once per batch.  Message bytes: each
   message is fetched once when first touched; if the batch outgrows the
   data cache, earlier messages have been evicted by the time the next
   layer runs, so they are refetched at every layer. *)
let misses_per_msg m s ~batch =
  if batch < 1 then invalid_arg "Blocking.misses_per_msg: batch must be >= 1";
  let code_lines = total (List.map (lines m) s.layer_code_bytes) in
  let ldata_lines = total (List.map (lines m) s.layer_data_bytes) in
  let msg_lines = lines m s.msg_bytes in
  let nlayers = List.length s.layer_code_bytes in
  let resident = total s.layer_code_bytes <= m.icache_bytes in
  let code_per_msg =
    if resident then 0.0
    else float_of_int (code_lines + ldata_lines) /. float_of_int batch
  in
  let batch_data_bytes = batch * s.msg_bytes in
  let msg_per_msg =
    if batch_data_bytes <= m.dcache_bytes then float_of_int msg_lines
    else
      (* Fraction of the batch that overflows the cache is refetched at
         every layer. *)
      let overflow =
        float_of_int (batch_data_bytes - m.dcache_bytes)
        /. float_of_int batch_data_bytes
      in
      float_of_int msg_lines
      *. (1.0 +. (overflow *. float_of_int (nlayers - 1)))
  in
  code_per_msg +. msg_per_msg

let cycles_per_msg m s ~batch =
  float_of_int s.cycles_per_msg
  +. (misses_per_msg m s ~batch *. float_of_int m.miss_penalty)

let recommend m s =
  if s.msg_bytes <= 0 then invalid_arg "Blocking.recommend: msg_bytes <= 0";
  let code_per_msg = total s.layer_code_bytes in
  let message_class =
    if s.msg_bytes >= code_per_msg then `Large_message else `Small_message
  in
  (* Candidate batches: 1 .. what fits in the D-cache (at least 1); pick
     the miss-minimising one (the estimate is monotone in practice, but a
     scan is cheap and robust). *)
  let fit = Int.max 1 (m.dcache_bytes / s.msg_bytes) in
  let best = ref 1 and best_misses = ref (misses_per_msg m s ~batch:1) in
  for b = 2 to fit do
    let mm = misses_per_msg m s ~batch:b in
    if mm < !best_misses then begin
      best := b;
      best_misses := mm
    end
  done;
  let batch = !best in
  let conv_misses = misses_per_msg m s ~batch:1 in
  let conv_cycles = cycles_per_msg m s ~batch:1 in
  let ldlp_cycles = cycles_per_msg m s ~batch in
  {
    message_class;
    batch;
    conv_misses_per_msg = conv_misses;
    ldlp_misses_per_msg = !best_misses;
    conv_cycles_per_msg = conv_cycles;
    ldlp_cycles_per_msg = ldlp_cycles;
    speedup = conv_cycles /. ldlp_cycles;
    max_rate_conv = m.clock_hz /. conv_cycles;
    max_rate_ldlp = m.clock_hz /. ldlp_cycles;
  }

let pp_recommendation ppf r =
  Format.fprintf ppf
    "@[<v>class: %s@,batch: %d@,misses/msg: %.1f conv -> %.1f ldlp@,\
     cycles/msg: %.0f conv -> %.0f ldlp (speedup %.2fx)@,\
     max rate: %.0f/s conv -> %.0f/s ldlp@]"
    (match r.message_class with
    | `Large_message -> "large-message"
    | `Small_message -> "small-message")
    r.batch r.conv_misses_per_msg r.ldlp_misses_per_msg r.conv_cycles_per_msg
    r.ldlp_cycles_per_msg r.speedup r.max_rate_conv r.max_rate_ldlp

let group_layers m code_sizes =
  let rec go current current_bytes acc = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | size :: rest ->
      if current <> [] && current_bytes + size > m.icache_bytes then
        go [ size ] size (List.rev current :: acc) rest
      else go (size :: current) (current_bytes + size) acc rest
  in
  go [] 0 [] code_sizes
