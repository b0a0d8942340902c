(* Real time for the benchmark: a monotonic nanosecond clock that does not
   allocate, and the process's peak resident set size. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* VmHWM from /proc/self/status, which starts afresh at exec.  getrusage's
   peak does not: run through `dune exec`, it reported dune's own peak
   whenever that was the larger. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l -> (
          match Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.
          | None -> find ())
      in
      find ())
