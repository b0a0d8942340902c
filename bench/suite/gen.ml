module Rng = Ldlp_sim.Rng
open Ldlp_sigproto

let stream ~seed ~workload ~phase =
  let d = Digest.string (Printf.sprintf "%d/%s/%s" seed workload phase) in
  let x = ref 0 in
  for i = 0 to 7 do
    x := (!x lsl 8) lor Char.code d.[i]
  done;
  Rng.create ~seed:(!x land max_int)

(* Poisson arrivals: [n] ascending due times (ns) at [rate] per second. *)
let arrivals rng ~rate n =
  let mean = 1e9 /. rate in
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t +. Rng.exponential rng ~mean;
      int_of_float !t)

type calls = {
  slab : Bytes.t;
  off : int array;
  due_ns : int array;
  signalling : Bytes.t;
  final_ack : Bytes.t;
  ncalls : int;
  replies : int;
}

let port = 1

let connect_ack_ns = 20_000

let ack_every = 8

let frames c = Array.length c.due_ns

let link_frame buf sscop_frame =
  Buffer.add_char buf (Char.chr port);
  Buffer.add_bytes buf sscop_frame

let calls ~seed ~phase ~rate ~ncalls ~hold_ns =
  let rng = stream ~seed ~workload:"sig-open" ~phase in
  let arrive = arrivals rng ~rate ncalls in
  let called = Array.init ncalls (fun _ -> Rng.int rng 1_000_000_000) in
  let qos = Array.init ncalls (fun _ -> Rng.int rng 4) in
  let nframes = (3 * ncalls) + (3 * ncalls / ack_every) in
  let buf = Buffer.create (nframes * 24) in
  let off = Array.make (nframes + 1) 0 in
  let due_ns = Array.make nframes 0 in
  let signalling = Bytes.make nframes '\000' in
  let nf = ref 0 and seq = ref 0 and replies = ref 0 in
  let emit ~due ~sig_ frame =
    off.(!nf) <- Buffer.length buf;
    due_ns.(!nf) <- due;
    if sig_ then Bytes.set signalling !nf '\001';
    link_frame buf frame;
    incr nf
  in
  let ack () = Sscop.frame ~tag:'A' ~seq:(!replies land 0xFFFFFF) Bytes.empty in
  (* Three due-time-sorted streams (setups, connect-acks, releases) merged;
     per call they are strictly ordered, so call state stays valid. *)
  let next = [| 0; 0; 0 |] in
  let time s k =
    arrive.(k) + match s with 0 -> 0 | 1 -> connect_ack_ns | _ -> hold_ns
  in
  for _ = 1 to 3 * ncalls do
    let best = ref (-1) in
    for s = 0 to 2 do
      if next.(s) < ncalls then
        match !best with
        | -1 -> best := s
        | b -> if time s next.(s) < time b next.(b) then best := s
    done;
    let s = !best in
    let k = next.(s) in
    next.(s) <- k + 1;
    let call_ref = k + 1 in
    let msg, answers =
      match s with
      | 0 ->
        ( Sigmsg.v ~call_ref Sigmsg.Setup
            [
              Ie.called_party (Printf.sprintf "+1%09d" called.(k));
              Ie.qos qos.(k);
            ],
          2 (* CALL_PROCEEDING, CONNECT *) )
      | 1 -> (Sigmsg.v ~call_ref Sigmsg.Connect_ack [], 0)
      | _ -> (Sigmsg.v ~call_ref Sigmsg.Release [], 1 (* RELEASE_COMPLETE *))
    in
    let due = time s k in
    emit ~due ~sig_:true
      (Sscop.frame ~tag:'D' ~seq:(!seq land 0xFFFFFF) (Sigmsg.encode msg));
    incr seq;
    replies := !replies + answers;
    if !seq mod ack_every = 0 then emit ~due ~sig_:false (ack ())
  done;
  off.(!nf) <- Buffer.length buf;
  let final = Buffer.create 8 in
  link_frame final (ack ());
  {
    slab = Buffer.to_bytes buf;
    off = Array.sub off 0 (!nf + 1);
    due_ns = Array.sub due_ns 0 !nf;
    signalling = Bytes.sub signalling 0 !nf;
    final_ack = Buffer.to_bytes final;
    ncalls;
    replies = !replies;
  }

let rpc_bytes = 64

type rpcs = { due : int array; conn : int array; payload : Bytes.t }

let rpcs ~seed ~phase ~rate ~n ~conns =
  let rng = stream ~seed ~workload:"tcp-rr" ~phase in
  let due = arrivals rng ~rate n in
  let conn = Array.init n (fun _ -> Rng.int rng conns) in
  let payload = Bytes.create (n * rpc_bytes) in
  for i = 0 to n - 1 do
    let o = i * rpc_bytes in
    Bytes.set_int64_be payload o (Int64.of_int i);
    for j = 8 to rpc_bytes - 1 do
      Bytes.set payload (o + j) (Char.chr (Rng.int rng 256))
    done
  done;
  { due; conn; payload }

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
