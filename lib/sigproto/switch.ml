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

module Legs = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Multiply-and-fold: spreads the port and flag bits into the low bits
     the table indexes by. *)
  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 29)) land max_int
end)

type call = {
  up_key : int;
  down_key : int;
  mutable up_state : Fsm.state;  (* terminating role toward the caller *)
  mutable down_state : Fsm.state;  (* originating role toward the callee *)
  vci : int;  (* on VPI 0 *)
  mutable counted_connect : bool;
}

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
  max_calls : int;
  auto_answer : bool;
  legs : call Legs.t;  (* both legs of every call, by packed key *)
  mutable next_out_ref : int;
  mutable next_vci : int;
  mutable routed : int;
  mutable connected : int;
  mutable released : int;
  mutable rejects : int;
  mutable errors : int;
}

let create ?(max_calls = 65536) ?(auto_answer = false) ~routes ~local_port ()
    =
  {
    routes;
    local_port;
    max_calls;
    auto_answer;
    legs = Legs.create 256;
    next_out_ref = 1;
    next_vci = 32;
    routed = 0;
    connected = 0;
    released = 0;
    rejects = 0;
    errors = 0;
  }

let active_calls t = Legs.length t.legs / 2

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

let leg_key call = function Up -> call.up_key | Down -> call.down_key

(* Queue [typ] toward the peer on [leg].  The switch's own messages carry
   the opposite flag to the one the leg's key records for arrivals. *)
let send call leg typ ies out =
  let k = leg_key call leg in
  out :=
    ( port_of k,
      Sigmsg.v ~from_originator:(leg = Down) ~call_ref:(ref_of k) typ ies )
    :: !out

(* Translate one leg's FSM actions into wire messages and cross-leg API
   events, recursing across legs until quiescent. *)
let rec apply t call leg actions out =
  match actions with
  | [] -> ()
  | action :: rest ->
    (match action with
    | Fsm.Send typ ->
      send call leg typ
        (if typ = Sigmsg.Connect then [ Ie.vpc_vci ~vpi:0 ~vci:call.vci ] else [])
        out
    | Fsm.Notify_connected -> (
      match leg with
      | Down ->
        (* The callee answered: accept the upstream half-call. *)
        step t call Up Fsm.Api_accept out
      | Up ->
        (* Upstream half-call fully connected (CONNECT_ACK received);
           the connect counter in [step] handles accounting. *)
        ())
    | Fsm.Notify_released -> (
      match leg with
      | Down ->
        if not (Fsm.is_terminal call.up_state) then
          step t call Up Fsm.Api_release out
      | Up ->
        if not (Fsm.is_terminal call.down_state) then
          if t.auto_answer && port_of call.down_key = t.local_port then
            (* The switch itself is the callee: no downstream handshake. *)
            call.down_state <- Fsm.Null
          else step t call Down Fsm.Api_release out)
    | Fsm.Notify_setup -> ());
    apply t call leg rest out

and step t call leg event out =
  let state = match leg with Up -> call.up_state | Down -> call.down_state in
  match Fsm.step state event with
  | Fsm.Protocol_error _ ->
    t.errors <- t.errors + 1;
    send call leg Sigmsg.Status [] out
  | Fsm.Ok_next (state', actions) ->
    (match leg with
    | Up -> call.up_state <- state'
    | Down -> call.down_state <- state');
    apply t call leg actions out;
    if
      (not call.counted_connect)
      && call.up_state = Fsm.Active && call.down_state = Fsm.Active
    then begin
      call.counted_connect <- true;
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
    if active_calls t >= t.max_calls then begin
      t.rejects <- t.rejects + 1;
      reject ~port ~call_ref:m.Sigmsg.call_ref 47 (* resource unavailable *) out
    end
    else begin
      let call =
        {
          up_key = key ~port ~call_ref:m.Sigmsg.call_ref ~from_originator:true;
          down_key =
            key ~port:out_port ~call_ref:(alloc_out_ref t) ~from_originator:false;
          up_state = Fsm.Null;
          down_state = Fsm.Null;
          vci = alloc_vci t;
          counted_connect = false;
        }
      in
      Legs.replace t.legs call.up_key call;
      Legs.replace t.legs call.down_key call;
      t.routed <- t.routed + 1;
      (* Upstream: behave as the terminating side of the caller's SETUP. *)
      step t call Up (Fsm.Recv Sigmsg.Setup) out;
      if t.auto_answer && out_port = t.local_port then begin
        (* Locally terminated and auto-answered: the virtual callee is
           already off-hook; offer the call upstream immediately. *)
        call.down_state <- Fsm.Active;
        step t call Up Fsm.Api_accept out
      end
      else begin
        (* Downstream: originate toward the callee.  [step Down Api_setup]
           queues a bare SETUP last; give it the caller's IEs plus the
           allocated VPI/VCI. *)
        step t call Down Fsm.Api_setup out;
        match !out with
        | (p, (sm : Sigmsg.t)) :: rest when sm.Sigmsg.typ = Sigmsg.Setup ->
          out :=
            ( p,
              {
                sm with
                Sigmsg.ies = m.Sigmsg.ies @ [ Ie.vpc_vci ~vpi:0 ~vci:call.vci ];
              } )
            :: rest
        | _ -> ()
      end
    end

let cleanup t call =
  if Fsm.is_terminal call.up_state && Fsm.is_terminal call.down_state then begin
    Legs.remove t.legs call.up_key;
    Legs.remove t.legs call.down_key;
    t.released <- t.released + 1
  end

let handle t ~port (m : Sigmsg.t) =
  let out = ref [] in
  let k =
    key ~port ~call_ref:m.Sigmsg.call_ref ~from_originator:m.Sigmsg.from_originator
  in
  (match Legs.find t.legs k with
  | call ->
    step t call (leg_of k) (Fsm.Recv m.Sigmsg.typ) out;
    cleanup t call
  | exception Not_found -> (
    match m.Sigmsg.typ with
    | Sigmsg.Setup when m.Sigmsg.from_originator -> forward_setup t ~port m out
    | Sigmsg.Release_complete | Sigmsg.Status ->
      (* Late or stray completions are ignored, per Q.93B custom. *)
      ()
    | _ ->
      t.errors <- t.errors + 1;
      reject ~port ~call_ref:m.Sigmsg.call_ref 81 (* invalid call ref *) out));
  List.rev !out

let vci_of_call t ~call_ref =
  Legs.fold
    (fun k call acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if leg_of k = Up && ref_of k = call_ref then Some (0, call.vci) else None)
    t.legs None
