type leg = Up | Down

(* A leg's key packs the port, the call-reference flag that messages
   arriving on it carry, and the 23-bit call reference into one integer:
   [port lsl 24 lor flag lsl 23 lor call_ref].  The caller originated the
   Up leg's reference, so its messages arrive with the flag set; the
   switch originated the Down leg's, so the callee's arrive with it
   clear.  The flag keeps a hairpin call (routed back out of its ingress
   port) from colliding with itself. *)
let ref_mask = 0x7FFFFF

let flag_bit = 0x800000

let key ~port ~call_ref ~from_originator =
  (port lsl 24) lor (if from_originator then flag_bit else 0)
  lor (call_ref land ref_mask)

let port_of key = key asr 24

let ref_of key = key land ref_mask

let leg_of key = if key land flag_bit <> 0 then Up else Down

module Flat = Ldlp_flowtable.Flat

(* Each call is one row of [width] int columns in [t.calls]: both legs'
   keys, both half-calls' FSM states ({!Fsm.code}), the VCI and whether
   the connect was counted.  A free row's [c_up] holds [-2 - next], the
   next free row (-1 for none), so every negative [c_up] is a free row. *)
let c_up = 0

let c_down = 1

let c_up_state = 2 (* terminating role toward the caller *)

let c_down_state = 3 (* originating role toward the callee *)

let c_vci = 4 (* on VPI 0 *)

let c_counted = 5

let width = 6

let key_col = function Up -> c_up | Down -> c_down

let state_col = function Up -> c_up_state | Down -> c_down_state

let null = Fsm.code Fsm.Null

let active = Fsm.code Fsm.Active

(* The outbox, [t.out], holds the replies to the last message, each a
   row of [o_width] int columns: the port, the call reference with the
   direction flag in bit 23, the type code, which elements follow the
   header ([o_ie], one of the [ie_*] kinds) and the kind's argument (the
   cause or the VCI). *)
let o_port = 0

let o_ref = 1

let o_code = 2

let o_ie = 3

let o_arg = 4

let o_width = 5

let ie_none = 0

let ie_cause = 1

let ie_vci = 2 (* a VPI/VCI element, VPI 0 *)

let ie_setup = 3 (* the forwarded SETUP's elements, then a VPI/VCI one *)

let setup_code = Sigmsg.type_code Sigmsg.Setup

let connect_code = Sigmsg.type_code Sigmsg.Connect

let release_complete_code = Sigmsg.type_code Sigmsg.Release_complete

type stats = {
  setups_routed : int;
  calls_connected : int;
  calls_released : int;
  rejected : int;
  protocol_errors : int;
}

type t = {
  routes : (string * int) list;
  local_port : int;
  auto_answer : bool;
  legs : Flat.t;  (* both legs of every call, by packed key, to its row *)
  mutable calls : int array;  (* the rows *)
  mutable free : int;  (* first free row, -1 for none *)
  mutable live : int;
  mutable next_out_ref : int;
  mutable next_vci : int;
  mutable routed : int;
  mutable connected : int;
  mutable released : int;
  mutable rejects : int;
  mutable errors : int;
  mutable out : int array;  (* the outbox's rows *)
  mutable replies : int;
  mutable setup_buf : bytes;  (* where the forwarded SETUP's elements lie *)
  mutable setup_off : int;
  mutable setup_len : int;
}

(* The VC table holds at most this many live calls. *)
let max_calls = 65536

let create ?(auto_answer = false) ~routes ~local_port () =
  {
    routes;
    local_port;
    auto_answer;
    legs = Flat.create ();
    calls = [||];
    free = -1;
    live = 0;
    next_out_ref = 1;
    next_vci = 32;
    routed = 0;
    connected = 0;
    released = 0;
    rejects = 0;
    errors = 0;
    out = [||];
    replies = 0;
    setup_buf = Bytes.empty;
    setup_off = 0;
    setup_len = 0;
  }

let active_calls t = t.live

let stats t =
  {
    setups_routed = t.routed;
    calls_connected = t.connected;
    calls_released = t.released;
    rejected = t.rejects;
    protocol_errors = t.errors;
  }

(* Whether the [len] bytes at [off] in [buf] start with [prefix]. *)
let rec prefix_from prefix buf off len i =
  i = String.length prefix
  || i < len
     && String.unsafe_get prefix i = Bytes.get buf (off + i)
     && prefix_from prefix buf off len (i + 1)

(* The port of the first route whose prefix starts the called-party
   address in the [len] bytes at [off]. *)
let rec route_at routes buf off len ~default =
  match routes with
  | [] -> default
  | (prefix, port) :: rest ->
    if prefix_from prefix buf off len 0 then port
    else route_at rest buf off len ~default

let alloc_out_ref t =
  let r = t.next_out_ref in
  t.next_out_ref <- (t.next_out_ref + 1) land ref_mask;
  if t.next_out_ref = 0 then t.next_out_ref <- 1;
  r

let alloc_vci t =
  let v = t.next_vci in
  t.next_vci <- if t.next_vci >= 0xFFFF then 32 else t.next_vci + 1;
  v

(* A free row.  When none is free, the rows double (from 64) and the new
   ones make up the free list. *)
let alloc_row t =
  if t.free < 0 then begin
    let n = Array.length t.calls / width in
    let grown = Int.max 64 (2 * n) in
    let calls = Array.make (grown * width) 0 in
    Array.blit t.calls 0 calls 0 (n * width);
    for r = n to grown - 1 do
      calls.((r * width) + c_up) <- -2 - (if r = grown - 1 then -1 else r + 1)
    done;
    t.calls <- calls;
    t.free <- n
  end;
  let r = t.free in
  t.free <- -2 - t.calls.((r * width) + c_up);
  r

let release_row t r =
  t.calls.((r * width) + c_up) <- -2 - t.free;
  t.free <- r

(* Append a reply to the outbox.  When it is full, its rows double
   (from 4). *)
let queue t ~port ~cr code ie arg =
  let b = t.replies * o_width in
  if b = Array.length t.out then begin
    let out = Array.make (Int.max (4 * o_width) (2 * b)) 0 in
    Array.blit t.out 0 out 0 b;
    t.out <- out
  end;
  let o = t.out in
  o.(b + o_port) <- port;
  o.(b + o_ref) <- cr;
  o.(b + o_code) <- code;
  o.(b + o_ie) <- ie;
  o.(b + o_arg) <- arg;
  t.replies <- t.replies + 1

(* Queue [typ] toward the peer on the [leg] of the call at row offset
   [b].  The switch's own messages carry the opposite flag to the one the
   leg's key records for arrivals. *)
let send t b leg typ =
  let k = t.calls.(b + key_col leg) in
  let cr = ref_of k lor if leg = Down then flag_bit else 0 in
  if typ = Sigmsg.Connect then
    queue t ~port:(port_of k) ~cr connect_code ie_vci t.calls.(b + c_vci)
  else queue t ~port:(port_of k) ~cr (Sigmsg.type_code typ) ie_none 0

(* Translate one leg's FSM actions into replies and cross-leg API
   events, recursing across legs until quiescent. *)
let rec apply t b leg actions =
  match actions with
  | [] -> ()
  | action :: rest ->
    (match action with
    | Fsm.Send typ -> send t b leg typ
    | Fsm.Notify_connected -> (
      match leg with
      | Down ->
        (* The callee answered: accept the upstream half-call. *)
        step t b Up Fsm.Api_accept
      | Up ->
        (* Upstream half-call fully connected (CONNECT_ACK received);
           the connect counter in [step] handles accounting. *)
        ())
    | Fsm.Notify_released -> (
      match leg with
      | Down ->
        if not (Fsm.is_terminal_code t.calls.(b + c_up_state)) then
          step t b Up Fsm.Api_release
      | Up ->
        if not (Fsm.is_terminal_code t.calls.(b + c_down_state)) then
          if t.auto_answer && port_of t.calls.(b + c_down) = t.local_port then
            (* The switch itself is the callee: no downstream handshake. *)
            t.calls.(b + c_down_state) <- null
          else step t b Down Fsm.Api_release)
    | Fsm.Notify_setup -> ());
    apply t b leg rest

and step t b leg event =
  match Fsm.step (Fsm.of_code t.calls.(b + state_col leg)) event with
  | Fsm.Protocol_error _ ->
    t.errors <- t.errors + 1;
    send t b leg Sigmsg.Status
  | Fsm.Ok_next (state', actions) ->
    t.calls.(b + state_col leg) <- Fsm.code state';
    apply t b leg actions;
    let c = t.calls in
    if
      c.(b + c_counted) = 0
      && c.(b + c_up_state) = active
      && c.(b + c_down_state) = active
    then begin
      c.(b + c_counted) <- 1;
      t.connected <- t.connected + 1
    end

let reject t ~port ~call_ref cause =
  queue t ~port ~cr:call_ref release_complete_code ie_cause cause

(* The SETUP at [off] in [buf] opened no leg yet: route it by its
   called-party address, read where it lies. *)
let forward_setup t ~port buf off ~call_ref =
  let ies = off + Sigmsg.header_bytes and ie_len = Sigmsg.ie_length_at buf off in
  let called = Ie.find_at Ie.id_called_party buf ies ie_len in
  if called < 0 then begin
    t.rejects <- t.rejects + 1;
    reject t ~port ~call_ref 96 (* mandatory IE missing *)
  end
  else begin
    let out_port =
      route_at t.routes buf (called + Ie.header_bytes)
        (Ie.data_length_at buf called) ~default:t.local_port
    in
    if t.live >= max_calls then begin
      t.rejects <- t.rejects + 1;
      reject t ~port ~call_ref 47 (* resource unavailable *)
    end
    else begin
      let up_key = key ~port ~call_ref ~from_originator:true in
      let down_key =
        key ~port:out_port ~call_ref:(alloc_out_ref t) ~from_originator:false
      in
      let r = alloc_row t in
      let b = r * width and c = t.calls in
      let vci = alloc_vci t in
      c.(b + c_up) <- up_key;
      c.(b + c_down) <- down_key;
      c.(b + c_up_state) <- null;
      c.(b + c_down_state) <- null;
      c.(b + c_vci) <- vci;
      c.(b + c_counted) <- 0;
      Flat.add t.legs up_key r;
      Flat.add t.legs down_key r;
      t.live <- t.live + 1;
      t.routed <- t.routed + 1;
      (* Upstream: behave as the terminating side of the caller's SETUP. *)
      step t b Up (Fsm.recv Sigmsg.Setup);
      if t.auto_answer && out_port = t.local_port then begin
        (* Locally terminated and auto-answered: the virtual callee is
           already off-hook; offer the call upstream immediately. *)
        c.(b + c_down_state) <- active;
        step t b Up Fsm.Api_accept
      end
      else begin
        (* Downstream: originate toward the callee.  [step Down Api_setup]
           queues a bare SETUP last; give it the caller's IEs plus the
           allocated VPI/VCI. *)
        step t b Down Fsm.Api_setup;
        let last = (t.replies - 1) * o_width in
        if t.replies > 0 && t.out.(last + o_code) = setup_code then begin
          t.out.(last + o_ie) <- ie_setup;
          t.out.(last + o_arg) <- vci;
          t.setup_buf <- buf;
          t.setup_off <- ies;
          t.setup_len <- ie_len
        end
      end
    end
  end

let cleanup t r =
  let b = r * width and c = t.calls in
  if
    Fsm.is_terminal_code c.(b + c_up_state)
    && Fsm.is_terminal_code c.(b + c_down_state)
  then begin
    Flat.remove t.legs c.(b + c_up);
    Flat.remove t.legs c.(b + c_down);
    release_row t r;
    t.live <- t.live - 1;
    t.released <- t.released + 1
  end

let input t ~port buf off =
  t.replies <- 0;
  let call_ref = Sigmsg.call_ref_at buf off
  and from_originator = Sigmsg.from_originator_at buf off
  and typ = Sigmsg.typ_at buf off in
  let k = key ~port ~call_ref ~from_originator in
  let slot = Flat.find t.legs k in
  (if slot >= 0 then begin
     let r = Flat.value t.legs slot in
     step t (r * width) (leg_of k) (Fsm.recv typ);
     cleanup t r
   end
   else
     match typ with
     | Sigmsg.Setup when from_originator -> forward_setup t ~port buf off ~call_ref
     | Sigmsg.Release_complete | Sigmsg.Status ->
       (* Late or stray completions are ignored, per Q.93B custom. *)
       ()
     | _ ->
       t.errors <- t.errors + 1;
       reject t ~port ~call_ref 81 (* invalid call ref *));
  t.replies

(* Row offset of reply [i] in the outbox. *)
let row t i =
  if i < 0 || i >= t.replies then invalid_arg "Switch: no such reply";
  i * o_width

let reply_port t i = t.out.(row t i + o_port)

let ie_bytes t b =
  let ie = t.out.(b + o_ie) in
  if ie = ie_none then 0
  else if ie = ie_cause then Ie.cause_bytes
  else if ie = ie_vci then Ie.vpc_vci_bytes
  else t.setup_len + Ie.vpc_vci_bytes

let reply_length t i = Sigmsg.header_bytes + ie_bytes t (row t i)

let write_reply t i buf off =
  let b = row t i and o = t.out in
  let cr = o.(b + o_ref) and ie = o.(b + o_ie) and arg = o.(b + o_arg) in
  let p = off + Sigmsg.header_bytes in
  if ie = ie_cause then Ie.write_cause buf p arg
  else if ie = ie_vci then Ie.write_vpc_vci buf p ~vpi:0 ~vci:arg
  else if ie = ie_setup then begin
    Bytes.blit t.setup_buf t.setup_off buf p t.setup_len;
    Ie.write_vpc_vci buf (p + t.setup_len) ~vpi:0 ~vci:arg
  end;
  Sigmsg.write_header buf off ~call_ref:(cr land ref_mask)
    ~from_originator:(cr land flag_bit <> 0) ~code:o.(b + o_code)
    ~ie_len:(ie_bytes t b)

let handle t ~port m =
  let n = input t ~port (Sigmsg.encode m) 0 in
  List.init n (fun i ->
      let buf = Bytes.create (reply_length t i) in
      write_reply t i buf 0;
      (reply_port t i, Result.get_ok (Sigmsg.decode buf)))

let vci_of_call t ~call_ref =
  let c = t.calls in
  let rec scan b =
    if b >= Array.length c then None
    else if c.(b + c_up) >= 0 && ref_of c.(b + c_up) = call_ref then
      Some (0, c.(b + c_vci))
    else scan (b + width)
  in
  scan 0
