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

let rec route_in routes address ~default =
  match routes with
  | [] -> default
  | (prefix, port) :: rest ->
    if String.starts_with ~prefix address then port
    else route_in rest address ~default

let route t address = route_in t.routes address ~default:t.local_port

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

(* Queue [typ] toward the peer on the [leg] of the call at row offset
   [b].  The switch's own messages carry the opposite flag to the one the
   leg's key records for arrivals. *)
let send t b leg typ ies out =
  let k = t.calls.(b + key_col leg) in
  out :=
    ( port_of k,
      Sigmsg.v ~from_originator:(leg = Down) ~call_ref:(ref_of k) typ ies )
    :: !out

(* Translate one leg's FSM actions into wire messages and cross-leg API
   events, recursing across legs until quiescent. *)
let rec apply t b leg actions out =
  match actions with
  | [] -> ()
  | action :: rest ->
    (match action with
    | Fsm.Send typ ->
      send t b leg typ
        (if typ = Sigmsg.Connect then
           [ Ie.vpc_vci ~vpi:0 ~vci:t.calls.(b + c_vci) ]
         else [])
        out
    | Fsm.Notify_connected -> (
      match leg with
      | Down ->
        (* The callee answered: accept the upstream half-call. *)
        step t b Up Fsm.Api_accept out
      | Up ->
        (* Upstream half-call fully connected (CONNECT_ACK received);
           the connect counter in [step] handles accounting. *)
        ())
    | Fsm.Notify_released -> (
      match leg with
      | Down ->
        if not (Fsm.is_terminal_code t.calls.(b + c_up_state)) then
          step t b Up Fsm.Api_release out
      | Up ->
        if not (Fsm.is_terminal_code t.calls.(b + c_down_state)) then
          if t.auto_answer && port_of t.calls.(b + c_down) = t.local_port then
            (* The switch itself is the callee: no downstream handshake. *)
            t.calls.(b + c_down_state) <- null
          else step t b Down Fsm.Api_release out)
    | Fsm.Notify_setup -> ());
    apply t b leg rest out

and step t b leg event out =
  match Fsm.step (Fsm.of_code t.calls.(b + state_col leg)) event with
  | Fsm.Protocol_error _ ->
    t.errors <- t.errors + 1;
    send t b leg Sigmsg.Status [] out
  | Fsm.Ok_next (state', actions) ->
    t.calls.(b + state_col leg) <- Fsm.code state';
    apply t b leg actions out;
    let c = t.calls in
    if
      c.(b + c_counted) = 0
      && c.(b + c_up_state) = active
      && c.(b + c_down_state) = active
    then begin
      c.(b + c_counted) <- 1;
      t.connected <- t.connected + 1
    end

let reject ~port ~call_ref cause out =
  out :=
    ( port,
      Sigmsg.v ~from_originator:false ~call_ref Sigmsg.Release_complete
        [ Ie.cause cause ] )
    :: !out

let forward_setup t ~port (m : Sigmsg.t) out =
  match Ie.find Ie.id_called_party m.Sigmsg.ies with
  | None ->
    t.rejects <- t.rejects + 1;
    reject ~port ~call_ref:m.Sigmsg.call_ref 96 (* mandatory IE missing *) out
  | Some called ->
    let out_port = route t called.Ie.data in
    if t.live >= max_calls then begin
      t.rejects <- t.rejects + 1;
      reject ~port ~call_ref:m.Sigmsg.call_ref 47 (* resource unavailable *) out
    end
    else begin
      let up_key = key ~port ~call_ref:m.Sigmsg.call_ref ~from_originator:true in
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
      step t b Up (Fsm.Recv Sigmsg.Setup) out;
      if t.auto_answer && out_port = t.local_port then begin
        (* Locally terminated and auto-answered: the virtual callee is
           already off-hook; offer the call upstream immediately. *)
        c.(b + c_down_state) <- active;
        step t b Up Fsm.Api_accept out
      end
      else begin
        (* Downstream: originate toward the callee.  [step Down Api_setup]
           queues a bare SETUP last; give it the caller's IEs plus the
           allocated VPI/VCI. *)
        step t b Down Fsm.Api_setup out;
        match !out with
        | (p, (sm : Sigmsg.t)) :: rest when sm.Sigmsg.typ = Sigmsg.Setup ->
          out :=
            ( p,
              { sm with Sigmsg.ies = m.Sigmsg.ies @ [ Ie.vpc_vci ~vpi:0 ~vci ] }
            )
            :: rest
        | _ -> ()
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

let handle t ~port (m : Sigmsg.t) =
  let out = ref [] in
  let k =
    key ~port ~call_ref:m.Sigmsg.call_ref ~from_originator:m.Sigmsg.from_originator
  in
  let slot = Flat.find t.legs k in
  (if slot >= 0 then begin
     let r = Flat.value t.legs slot in
     step t (r * width) (leg_of k) (Fsm.Recv m.Sigmsg.typ) out;
     cleanup t r
   end
   else
     match m.Sigmsg.typ with
     | Sigmsg.Setup when m.Sigmsg.from_originator -> forward_setup t ~port m out
     | Sigmsg.Release_complete | Sigmsg.Status ->
       (* Late or stray completions are ignored, per Q.93B custom. *)
       ()
     | _ ->
       t.errors <- t.errors + 1;
       reject ~port ~call_ref:m.Sigmsg.call_ref 81 (* invalid call ref *) out);
  List.rev !out

let vci_of_call t ~call_ref =
  let c = t.calls in
  let rec scan b =
    if b >= Array.length c then None
    else if c.(b + c_up) >= 0 && ref_of c.(b + c_up) = call_ref then
      Some (0, c.(b + c_vci))
    else scan (b + width)
  in
  scan 0
