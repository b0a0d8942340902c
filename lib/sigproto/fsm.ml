type state =
  | Null
  | Call_initiated
  | Outgoing_proceeding
  | Call_present
  | Connect_request
  | Active
  | Release_request

let states =
  [|
    Null;
    Call_initiated;
    Outgoing_proceeding;
    Call_present;
    Connect_request;
    Active;
    Release_request;
  |]

let code = function
  | Null -> 0
  | Call_initiated -> 1
  | Outgoing_proceeding -> 2
  | Call_present -> 3
  | Connect_request -> 4
  | Active -> 5
  | Release_request -> 6

let of_code i = states.(i)

let state_name = function
  | Null -> "null"
  | Call_initiated -> "call-initiated"
  | Outgoing_proceeding -> "outgoing-proceeding"
  | Call_present -> "call-present"
  | Connect_request -> "connect-request"
  | Active -> "active"
  | Release_request -> "release-request"

type event =
  | Recv of Sigmsg.msg_type
  | Api_setup
  | Api_accept
  | Api_release

type action =
  | Send of Sigmsg.msg_type
  | Notify_setup
  | Notify_connected
  | Notify_released

type verdict = Ok_next of state * action list | Protocol_error of string

let error state event_name =
  Protocol_error
    (Printf.sprintf "unexpected %s in state %s" event_name (state_name state))

let event_name = function
  | Recv m -> Sigmsg.msg_type_name m
  | Api_setup -> "api-setup"
  | Api_accept -> "api-accept"
  | Api_release -> "api-release"

let step state event =
  match (state, event) with
  (* Origination. *)
  | Null, Api_setup -> Ok_next (Call_initiated, [ Send Sigmsg.Setup ])
  | Call_initiated, Recv Sigmsg.Call_proceeding ->
    Ok_next (Outgoing_proceeding, [])
  | Call_initiated, Recv Sigmsg.Connect
  | Outgoing_proceeding, Recv Sigmsg.Connect ->
    Ok_next (Active, [ Send Sigmsg.Connect_ack; Notify_connected ])
  (* Termination. *)
  | Null, Recv Sigmsg.Setup ->
    Ok_next (Call_present, [ Send Sigmsg.Call_proceeding; Notify_setup ])
  | Call_present, Api_accept ->
    Ok_next (Connect_request, [ Send Sigmsg.Connect ])
  | Connect_request, Recv Sigmsg.Connect_ack ->
    Ok_next (Active, [ Notify_connected ])
  (* Release, either side. *)
  | ( (Active | Call_initiated | Outgoing_proceeding | Call_present
      | Connect_request),
      Api_release ) ->
    Ok_next (Release_request, [ Send Sigmsg.Release ])
  | Release_request, Recv Sigmsg.Release_complete ->
    Ok_next (Null, [ Notify_released ])
  | ( (Active | Call_initiated | Outgoing_proceeding | Call_present
      | Connect_request),
      Recv Sigmsg.Release ) ->
    Ok_next (Null, [ Send Sigmsg.Release_complete; Notify_released ])
  | Release_request, Recv Sigmsg.Release ->
    (* Release collision: both sides complete. *)
    Ok_next (Null, [ Send Sigmsg.Release_complete; Notify_released ])
  (* Status handling is a no-op at this level. *)
  | s, Recv Sigmsg.Status -> Ok_next (s, [])
  | s, Recv Sigmsg.Status_enquiry -> Ok_next (s, [ Send Sigmsg.Status ])
  | s, e -> error s (event_name e)

let is_terminal = function Null -> true | _ -> false

let is_terminal_code c = is_terminal (of_code c)
