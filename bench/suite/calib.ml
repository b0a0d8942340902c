(* Host-speed calibration.

   On a shared host the speed of the CPU the benchmark gets drifts by a
   factor of two to three over seconds to minutes, and its own CPU time
   drifts with its wall time, so no estimator over raw times repeats from
   one run to the next.  Every time the benchmark reports is therefore
   measured next to a fixed calibration kernel and scaled to a host of the
   reference speed: a measurement of [t] ns reports [t / f], where the
   host factor [f] is the median of the last [history] kernel runs' times
   over their reference times, among them the runs just before and just
   after it.  One kernel run is a poor estimate: two consecutive ones, a
   few hundred ms apart, differed by 20% or more half the time, while the
   host's slow and fast spells last seconds.  Every kernel run starts from
   a collected heap, untimed: run straight after a measurement, it paid
   for the measurement's garbage (mesh-storm's rate read 12% higher), so a
   change that made more garbage would have looked faster.  The
   measurement after it starts from that collected heap too.

   The kernel has three parts, and a run's time over its reference is the
   geometric mean of the parts' ratios.  The parts slow down differently
   as the host's load changes, and so do the workloads: short-lived
   tuples, lists and byte buffers inserted into, found in and removed from
   a hash table; a pure integer loop; and strings formatted, split and
   kept in a balanced map, which runs through much more code.  In a
   12-minute stretch whose raw times moved by 24-45% (IQR over median of
   25 s windows), the workloads' ratios to the hash-table part alone moved
   by 3-10%, to all three parts by 3-6.5%; the integer loop alone tracked
   the closed-loop RPCs best and everything else worst.  The kernel is
   part of the benchmark and never changes with the code under test. *)

let hash_table n =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let k = (i * 7919) land 8191 in
    (match Hashtbl.find_opt h k with
    | Some (a, l) ->
      acc := !acc + a + List.length l;
      Hashtbl.remove h k
    | None -> Hashtbl.replace h k (i, [ i; k; i lxor k ]));
    let b = Bytes.make 48 (Char.unsafe_chr (i land 255)) in
    acc := !acc + Char.code (Bytes.get b (i mod 48))
  done;
  ignore (Sys.opaque_identity !acc)

let integer_loop n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + (i * i)
  done;
  ignore (Sys.opaque_identity !acc)

module Smap = Map.Make (String)

let strings n =
  let m = ref Smap.empty and acc = ref 0 in
  for i = 0 to n - 1 do
    if i land 255 = 0 then m := Smap.empty;
    let s = Printf.sprintf "%d:%x/%s" i (i * 7919) (if i land 1 = 0 then "a" else "bc") in
    m := Smap.add s i !m;
    let b = Buffer.create 16 in
    Buffer.add_string b (String.uppercase_ascii s);
    Buffer.add_char b '!';
    let lengths = Array.of_list (List.map String.length (String.split_on_char ':' s)) in
    Array.sort compare lengths;
    acc := !acc + Buffer.length b + lengths.(0) + Option.value (Smap.find_opt s !m) ~default:0
  done;
  ignore (Sys.opaque_identity !acc)

(* Each part with its iterations and about its median time on the
   reference host, in ns. *)
let parts =
  [ (hash_table, 20_000, 3_300_000); (integer_loop, 3_000_000, 4_500_000); (strings, 4_000, 5_500_000) ]

let history = 5

type t = {
  shrink : int;  (** Divides every part's iterations. *)
  recent : float array;  (** The last [history] kernel times over their reference. *)
  mutable next : int;
}

let refresh c =
  Gc.full_major ();
  let log_ratio (run, iterations, ref_ns) =
    let t0 = Clock.now_ns () in
    run (iterations / c.shrink);
    let ns = Clock.now_ns () - t0 in
    log (float_of_int ns *. float_of_int c.shrink /. float_of_int ref_ns)
  in
  let sum = List.fold_left (fun a p -> a +. log_ratio p) 0. parts in
  c.recent.(c.next) <- exp (sum /. float_of_int (List.length parts));
  c.next <- (c.next + 1) mod history

(* In smoke mode the kernel does a twentieth of the work: the values do
   not matter there, only the time. *)
let create ~quick =
  let c = { shrink = (if quick then 20 else 1); recent = Array.make history 1.; next = 0 } in
  for _ = 1 to history do
    refresh c
  done;
  c

let factor c = Lat.median c.recent

let time c f =
  let t0 = Clock.now_ns () in
  let r = f () in
  let ns = Clock.now_ns () - t0 in
  refresh c;
  (r, float_of_int ns /. factor c)

let scaled c f =
  let r = f ~factor:(factor c) in
  refresh c;
  r
