(* Tests for the engine's protocol-graph shape: the Section 3.2 general
   case where a layer has several layers directly above it (IP
   demultiplexing to TCP/UDP/ICMP). *)

open Ldlp_core

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* A classic internet graph:

        sockets
        /     \
      tcp     udp     icmp
        \      |      /
             ip
             |
           ether

   Payloads are (proto, id) pairs; the ip layer demultiplexes on proto.
   Returns the engine, ether's node index and the handling log. *)
let build ~discipline =
  let g = Engine.create ~discipline () in
  let log = ref [] in
  let seen name msg = log := (name, snd msg.Msg.payload) :: !log in
  let consume name =
    Layer.v ~name (fun m ->
        seen name m;
        [ Layer.Consume ])
  in
  let pass name targets =
    Layer.v ~name (fun m ->
        seen name m;
        match targets with
        | `Up -> [ Layer.Deliver_up m ]
        | `Demux f -> [ Layer.Deliver_to (f m, m) ])
  in
  let sockets = Engine.add_layer g (consume "sockets") in
  let tcp = Engine.add_layer g ~above:[ sockets ] (pass "tcp" `Up) in
  let udp = Engine.add_layer g ~above:[ sockets ] (pass "udp" `Up) in
  let icmp = Engine.add_layer g (consume "icmp") in
  let ip =
    Engine.add_layer g
      ~above:[ tcp; udp; icmp ]
      (pass "ip" (`Demux (fun m -> fst m.Msg.payload)))
  in
  let ether = Engine.add_layer g ~above:[ ip ] (pass "ether" `Up) in
  (g, ether, log)

let msg proto id = Msg.make ~size:100 (proto, id)

let test_graph_shape () =
  let g, _, _ = build ~discipline:Engine.Conventional in
  let roots =
    List.filter (Engine.is_entry g) (List.init (Engine.node_count g) Fun.id)
  in
  Alcotest.(check (list string)) "roots" [ "ether" ]
    (List.map (Engine.node_name g) roots)

let test_demux_routes () =
  let g, ether, log = build ~discipline:Engine.Conventional in
  Engine.inject g ~node:ether (msg "tcp" 1);
  Engine.inject g ~node:ether (msg "udp" 2);
  Engine.inject g ~node:ether (msg "icmp" 3);
  Engine.run g;
  let path id =
    List.rev (List.filter_map (fun (l, i) -> if i = id then Some l else None) !log)
  in
  Alcotest.(check (list string)) "tcp path" [ "ether"; "ip"; "tcp"; "sockets" ] (path 1);
  Alcotest.(check (list string)) "udp path" [ "ether"; "ip"; "udp"; "sockets" ] (path 2);
  Alcotest.(check (list string)) "icmp path" [ "ether"; "ip"; "icmp" ] (path 3);
  let s = Engine.stats g in
  checki "all consumed" 3 s.Engine.consumed;
  checki "no misroutes" 0 s.Engine.misrouted

let test_ldlp_blocked_over_graph () =
  let g, ether, log = build ~discipline:(Engine.Ldlp Batch.All) in
  (* Two messages per branch, injected interleaved. *)
  List.iter
    (Engine.inject g ~node:ether)
    [ msg "tcp" 1; msg "udp" 2; msg "tcp" 3; msg "udp" 4 ];
  Engine.run g;
  (* Layer-major order: ether handles all four, then ip all four, then the
     branch layers each handle their pair. *)
  let order = List.rev_map fst !log in
  let prefix = [ "ether"; "ether"; "ether"; "ether"; "ip"; "ip"; "ip"; "ip" ] in
  let rec take n = function
    | [] -> []
    | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
  in
  Alcotest.(check (list string)) "blocked prefix" prefix (take 8 order);
  checki "4 consumed" 4 (Engine.stats g).Engine.consumed

let test_priority_branch_closest_to_top_first () =
  (* Once ether's batch is enqueued at ip and processed, tcp and udp
     queues (depth 1) must drain before ether (depth 2) takes another
     batch. *)
  let g, ether, log = build ~discipline:(Engine.Ldlp (Batch.Fixed 2)) in
  List.iter
    (Engine.inject g ~node:ether)
    [ msg "tcp" 1; msg "udp" 2; msg "tcp" 3; msg "udp" 4 ];
  Engine.run g;
  let order = List.rev_map fst !log in
  (* First quantum: ether x2; then ip x2, branches, sockets — and only
     then ether again. *)
  let first_8 =
    let rec take n = function
      | [] -> []
      | x :: tl -> if n = 0 then [] else x :: take (n - 1) tl
    in
    take 8 order
  in
  check "second ether batch comes after upper layers drained" true
    (match first_8 with
    | "ether" :: "ether" :: rest ->
      (* No further "ether" until everything enqueued upward is done. *)
      let upper, _later = List.partition (fun l -> l <> "ether") rest in
      List.length upper >= 5
    | _ -> false)

let test_ambiguous_deliver_up_misroutes () =
  let g = Engine.create ~discipline:Engine.Conventional () in
  let a = Engine.add_layer g (Layer.passthrough "a") in
  let b = Engine.add_layer g (Layer.passthrough "b") in
  (* "fan" has two parents and wrongly uses Deliver_up. *)
  let fan = Engine.add_layer g ~above:[ a; b ] (Layer.passthrough "fan") in
  Engine.inject g ~node:fan (Msg.make ());
  Engine.run g;
  let s = Engine.stats g in
  checki "misrouted" 1 s.Engine.misrouted;
  checki "not delivered" 0 s.Engine.to_up

let test_deliver_to_non_edge_misroutes () =
  let g = Engine.create ~discipline:Engine.Conventional () in
  let top = Engine.add_layer g (Layer.passthrough "top") in
  let bottom =
    Engine.add_layer g ~above:[ top ]
      (Layer.v ~name:"bottom" (fun m -> [ Layer.Deliver_to ("nowhere", m) ]))
  in
  Engine.inject g ~node:bottom (Msg.make ());
  Engine.run g;
  checki "misrouted" 1 (Engine.stats g).Engine.misrouted

let test_duplicate_and_unknown_layers_rejected () =
  let g = Engine.create ~discipline:Engine.Conventional () in
  let x = Engine.add_layer g (Layer.passthrough "x") in
  check "duplicate rejected" true
    (try
       ignore (Engine.add_layer g (Layer.passthrough "x"));
       false
     with Invalid_argument _ -> true);
  check "unknown parent rejected" true
    (try
       ignore (Engine.add_layer g ~above:[ x + 1 ] (Layer.passthrough "y"));
       false
     with Invalid_argument _ -> true)

let prop_graph_conservation =
  QCheck.Test.make ~name:"graph delivers every message exactly once" ~count:100
    QCheck.(pair (list_of_size Gen.(0 -- 40) (int_bound 2)) bool)
    (fun (protos, ldlp) ->
      let discipline =
        if ldlp then Engine.Ldlp Batch.paper_default else Engine.Conventional
      in
      let g, ether, _ = build ~discipline in
      let expected_consumed = List.length protos in
      List.iteri
        (fun i p ->
          let proto = [| "tcp"; "udp"; "icmp" |].(p) in
          Engine.inject g ~node:ether (msg proto i))
        protos;
      Engine.run g;
      let s = Engine.stats g in
      s.Engine.consumed = expected_consumed
      && s.Engine.misrouted = 0
      && Engine.pending g = 0)

let test_intake_shedding () =
  let shed_ids = ref [] in
  let g =
    Engine.create ~discipline:Engine.Conventional ~intake_limit:2
      ~on_shed:(fun m -> shed_ids := snd m.Msg.payload :: !shed_ids)
      ()
  in
  let top =
    Engine.add_layer g
      (Layer.v ~name:"top" (fun m ->
           ignore m;
           [ Layer.Consume ]))
  in
  let ether =
    Engine.add_layer g ~above:[ top ]
      (Layer.v ~name:"ether" (fun m -> [ Layer.Deliver_up m ]))
  in
  let results =
    List.init 5 (fun i -> Engine.try_inject g ~node:ether (msg "tcp" i))
  in
  Alcotest.(check (list bool))
    "watermark admits the first 2" [ true; true; false; false; false ] results;
  Alcotest.(check (list int)) "refused ids to on_shed" [ 2; 3; 4 ]
    (List.rev !shed_ids);
  let st = Engine.stats g in
  checki "stats.shed" 3 st.Engine.shed;
  checki "shed not counted injected" 2 st.Engine.injected;
  Engine.run g;
  checki "accepted all consumed" 2 (Engine.stats g).Engine.consumed;
  check "drained queue reopens intake" true
    (Engine.try_inject g ~node:ether (msg "tcp" 9))

let suite =
  [
    Alcotest.test_case "graph shape" `Quick test_graph_shape;
    Alcotest.test_case "intake shedding" `Quick test_intake_shedding;
    Alcotest.test_case "demux routes" `Quick test_demux_routes;
    Alcotest.test_case "ldlp blocked over graph" `Quick test_ldlp_blocked_over_graph;
    Alcotest.test_case "branch priority" `Quick
      test_priority_branch_closest_to_top_first;
    Alcotest.test_case "ambiguous deliver_up" `Quick
      test_ambiguous_deliver_up_misroutes;
    Alcotest.test_case "deliver_to non-edge" `Quick test_deliver_to_non_edge_misroutes;
    Alcotest.test_case "duplicate/unknown layers" `Quick
      test_duplicate_and_unknown_layers_rejected;
    QCheck_alcotest.to_alcotest prop_graph_conservation;
  ]
