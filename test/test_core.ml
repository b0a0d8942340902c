(* Tests for the LDLP engine: batch policies, the receive and transmit
   chains' ordering and conservation invariants, the blocking estimator,
   the runtime. *)

open Ldlp_core

let check = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* ---------- Msg ---------- *)

let test_msg_ids_unique () =
  let a = Msg.make () and b = Msg.make () in
  check "unique ids" true (a.Msg.id <> b.Msg.id)

let test_msg_with_payload () =
  let a = Msg.make ~flow:3 ~arrival:1.5 ~size:100 "x" in
  let b = Msg.with_payload a 42 ~size:4 in
  checki "same id" a.Msg.id b.Msg.id;
  checki "same flow" 3 b.Msg.flow;
  checki "new size" 4 b.Msg.size;
  Alcotest.(check (float 0.0)) "same arrival" 1.5 b.Msg.arrival

(* ---------- Batch ---------- *)

(* [Batch.limit] over pending messages of the given sizes, front first. *)
let limit policy sizes =
  let a = Array.of_list sizes in
  Batch.limit policy ~len:(Array.length a) ~size:(Array.get a)

let test_batch_fixed () =
  checki "fixed caps" 3 (limit (Batch.Fixed 3) [ 1; 1; 1; 1; 1 ]);
  checki "fixed under" 2 (limit (Batch.Fixed 3) [ 1; 1 ]);
  checki "empty" 0 (limit (Batch.Fixed 3) [])

let test_batch_all () =
  checki "all" 4 (limit Batch.All [ 1; 2; 3; 4 ])

let test_batch_dcache_fit_paper () =
  (* 8192-byte cache, 552-byte messages + 32 overhead -> 14 per batch,
     the paper's "flattens beyond 8500 msgs/sec" limit. *)
  let sizes = List.init 50 (fun _ -> 552) in
  checki "paper batch is 14" 14 (limit Batch.paper_default sizes)

let test_batch_oversized_msg () =
  (* A message bigger than the cache must still pass (batch of 1). *)
  checki "oversized passes alone" 1
    (limit Batch.paper_default [ 100000; 552 ])

let prop_batch_bounds =
  QCheck.Test.make ~name:"batch limit is in [1, pending] when pending > 0"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 40) (int_range 0 4096))
    (fun sizes ->
      List.for_all
        (fun policy ->
          let n = limit policy sizes in
          n >= 1 && n <= List.length sizes)
        [
          Batch.All;
          Batch.Fixed 5;
          Batch.paper_default;
          Batch.Dcache_fit { cache_bytes = 1024; per_msg_overhead = 0 };
        ])

let prop_batch_fixed_cap =
  QCheck.Test.make ~name:"Fixed n never exceeds n" ~count:300
    QCheck.(
      pair (int_range 1 50) (list_of_size Gen.(0 -- 60) (int_range 0 4096)))
    (fun (n, sizes) -> limit (Batch.Fixed n) sizes <= n)

let prop_batch_dcache_monotone =
  (* A bigger data cache never shrinks the batch (Section 3.2: the batch is
     "as many messages as will fit in the data cache"). *)
  QCheck.Test.make ~name:"Dcache_fit limit is monotone in cache_bytes"
    ~count:300
    QCheck.(
      quad (int_range 0 16384) (int_range 0 16384) (int_range 0 64)
        (list_of_size Gen.(1 -- 40) (int_range 0 4096)))
    (fun (c1, c2, per_msg_overhead, sizes) ->
      let small = min c1 c2 and big = max c1 c2 in
      limit (Batch.Dcache_fit { cache_bytes = small; per_msg_overhead }) sizes
      <= limit (Batch.Dcache_fit { cache_bytes = big; per_msg_overhead }) sizes)

let prop_batch_prefix_sum =
  (* Dcache_fit takes exactly the longest prefix fitting the cache budget
     (always at least one message). *)
  QCheck.Test.make ~name:"Dcache_fit takes the longest fitting prefix"
    ~count:300
    QCheck.(
      triple (int_range 64 8192) (int_range 0 64)
        (list_of_size Gen.(1 -- 40) (int_range 0 4096)))
    (fun (cache_bytes, per_msg_overhead, sizes) ->
      let n =
        limit (Batch.Dcache_fit { cache_bytes; per_msg_overhead }) sizes
      in
      let cost k =
        List.fold_left ( + ) 0
          (List.filteri (fun i _ -> i < k) (List.map (( + ) per_msg_overhead) sizes))
      in
      (n = 1 || cost n <= cache_bytes)
      && (n >= List.length sizes || cost (n + 1) > cache_bytes))

(* ---------- Receive chain ---------- *)

(* A stack of [n] passthrough layers that logs (layer, msg id) handling
   order. *)
let logging_stack ~discipline ~n =
  let log = ref [] in
  let delivered = ref [] in
  let layers =
    List.init n (fun i ->
        Layer.v ~name:(Printf.sprintf "L%d" i) (fun msg ->
            [ Layer.Deliver_up msg ]))
  in
  let sched =
    Engine.rx_chain ~discipline ~layers
      ~up:(fun m -> delivered := m.Msg.id :: !delivered)
      ~on_handled:(fun i _ m -> log := (i, m.Msg.id) :: !log)
      ()
  in
  (sched, log, delivered)

let inject_n sched n =
  List.init n (fun i ->
      let m = Msg.make ~flow:(i mod 3) ~size:552 i in
      Engine.inject sched ~node:0 m;
      m.Msg.id)

let test_conventional_order () =
  (* Conventional: msg 1 climbs all layers before msg 2 starts. *)
  let sched, log, _ = logging_stack ~discipline:Engine.Conventional ~n:3 in
  let ids = inject_n sched 2 in
  Engine.run sched;
  let expected =
    match ids with
    | [ a; b ] -> [ (0, a); (1, a); (2, a); (0, b); (1, b); (2, b) ]
    | _ -> assert false
  in
  check "depth-first order" true (List.rev !log = expected)

let test_ldlp_blocked_order () =
  (* LDLP: layer 0 processes the whole batch before layer 1 runs. *)
  let sched, log, _ = logging_stack ~discipline:(Engine.Ldlp Batch.All) ~n:3 in
  let ids = inject_n sched 3 in
  Engine.run sched;
  let expected =
    List.concat_map (fun layer -> List.map (fun id -> (layer, id)) ids) [ 0; 1; 2 ]
  in
  check "blocked (layer-major) order" true (List.rev !log = expected)

let test_ldlp_batch_cap_respected () =
  let sched, log, _ = logging_stack ~discipline:(Engine.Ldlp (Batch.Fixed 2)) ~n:2 in
  ignore (inject_n sched 5);
  (* First step: bottom layer processes at most 2. *)
  ignore (Engine.step sched);
  let layer0 = List.filter (fun (l, _) -> l = 0) !log in
  checki "first quantum bounded" 2 (List.length layer0);
  Engine.run sched;
  let st = Engine.stats sched in
  check "max batch <= 2" true (st.Engine.max_batch <= 2);
  checki "all delivered" 5 st.Engine.to_up

let test_ldlp_priority_upper_first () =
  (* After the bottom yields, the upper layer must drain before the bottom
     takes another batch. *)
  let sched, log, _ = logging_stack ~discipline:(Engine.Ldlp (Batch.Fixed 1)) ~n:2 in
  ignore (inject_n sched 2);
  Engine.run sched;
  (* With batch 1, order must be 0,1 (msg1) then 0,1 (msg2): the upper
     queue never holds two messages. *)
  let layers_in_order = List.rev_map fst !log in
  check "upper layer drains between batches" true
    (layers_in_order = [ 0; 1; 0; 1 ])

let test_send_down_and_consume () =
  let downs = ref [] in
  let layers =
    [
      Layer.v ~name:"bottom" (fun m -> [ Layer.Deliver_up m ]);
      Layer.v ~name:"replier" (fun m ->
          [ Layer.Send_down (Msg.with_payload m (-m.Msg.payload) ~size:4); Layer.Consume ]);
    ]
  in
  let sched =
    Engine.rx_chain ~discipline:(Engine.Ldlp Batch.All) ~layers
      ~down:(fun m -> downs := m.Msg.payload :: !downs)
      ()
  in
  Engine.inject sched ~node:0 (Msg.make ~size:1 7);
  Engine.run sched;
  Alcotest.(check (list int)) "reply sent down" [ -7 ] !downs;
  let st = Engine.stats sched in
  checki "consumed" 1 st.Engine.consumed;
  checki "sent down" 1 st.Engine.to_down;
  checki "delivered" 0 st.Engine.to_up

let prop_conservation =
  QCheck.Test.make ~name:"every injected message is delivered exactly once"
    ~count:100
    QCheck.(pair (int_range 0 50) (int_range 1 5))
    (fun (n, nlayers) ->
      List.for_all
        (fun discipline ->
          let sched, _, delivered = logging_stack ~discipline ~n:nlayers in
          let ids = inject_n sched n in
          Engine.run sched;
          let got = List.sort compare !delivered in
          got = List.sort compare ids && Engine.pending sched = 0)
        [ Engine.Conventional; Engine.Ldlp Batch.All; Engine.Ldlp (Batch.Fixed 3) ])

let prop_fifo_per_flow =
  QCheck.Test.make ~name:"per-flow FIFO order preserved by both disciplines"
    ~count:100
    QCheck.(pair (int_range 0 60) (int_range 1 4))
    (fun (n, nlayers) ->
      List.for_all
        (fun discipline ->
          let sched, _, delivered = logging_stack ~discipline ~n:nlayers in
          let ids = inject_n sched n in
          Engine.run sched;
          (* Delivered order restricted to any single flow = injected
             order.  Flow = position mod 3 (see inject_n). *)
          let order = List.rev !delivered in
          let flow_of =
            let tbl = Hashtbl.create 16 in
            List.iteri (fun i id -> Hashtbl.add tbl id (i mod 3)) ids;
            Hashtbl.find tbl
          in
          List.for_all
            (fun f ->
              let inj = List.filter (fun id -> flow_of id = f) ids in
              let del = List.filter (fun id -> flow_of id = f) order in
              inj = del)
            [ 0; 1; 2 ])
        [ Engine.Conventional; Engine.Ldlp Batch.paper_default ])

let test_stats_per_layer () =
  let sched, _, _ = logging_stack ~discipline:Engine.Conventional ~n:2 in
  ignore (inject_n sched 4);
  Engine.run sched;
  let st = Engine.stats sched in
  List.iter (fun (_, n) -> checki "each layer handled all" 4 n) st.Engine.per_node;
  checki "injected" 4 st.Engine.injected

let test_intake_shedding () =
  let shed_ids = ref [] in
  let delivered = ref [] in
  let sched =
    Engine.rx_chain ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "l0"; Layer.passthrough "l1" ]
      ~up:(fun m -> delivered := m.Msg.id :: !delivered)
      ~intake_limit:3
      ~on_shed:(fun m -> shed_ids := m.Msg.id :: !shed_ids)
      ()
  in
  let results =
    List.map (fun m -> (m.Msg.id, Engine.try_inject sched ~node:0 m))
      (List.init 5 (fun i -> Msg.make ~size:10 i))
  in
  checki "watermark admits 3" 3 (List.length (List.filter snd results));
  checki "2 passed to on_shed" 2 (List.length !shed_ids);
  (* The refused messages are the last two offered. *)
  Alcotest.(check (list bool))
    "first-come first-served" [ true; true; true; false; false ]
    (List.map snd results);
  let st = Engine.stats sched in
  checki "stats.shed" 2 st.Engine.shed;
  (* Shed arrivals never enter the stack: the conservation invariant
     (injected = delivered + consumed + sent_down) is untouched. *)
  checki "shed not counted injected" 3 st.Engine.injected;
  Engine.run sched;
  checki "accepted messages all delivered" 3 (List.length !delivered);
  checki "nothing shed mid-run" 2 (Engine.stats sched).Engine.shed;
  (* Draining the queue reopens the intake. *)
  check "room after run" true (Engine.try_inject sched ~node:0 (Msg.make ~size:10 9));
  (* Without a limit try_inject never refuses. *)
  let open_sched =
    Engine.rx_chain ~discipline:(Engine.Ldlp Batch.All)
      ~layers:[ Layer.passthrough "l0" ] ()
  in
  check "unlimited intake" true
    (List.for_all Fun.id
       (List.init 100 (fun i -> Engine.try_inject open_sched ~node:0 (Msg.make i))))

let test_shed_scalar_only_with_limit () =
  let m = Ldlp_obs.Metrics.create ~label:"shed" ~layer_names:[ "l0" ] in
  let sched =
    Engine.rx_chain ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "l0" ]
      ~intake_limit:1 ~metrics:m ()
  in
  ignore (Engine.try_inject sched ~node:0 (Msg.make 0));
  ignore (Engine.try_inject sched ~node:0 (Msg.make 1));
  ignore (Engine.try_inject sched ~node:0 (Msg.make 2));
  checki "scalar mirrors stats.shed" (Engine.stats sched).Engine.shed
    (List.assoc "shed" (Ldlp_obs.Metrics.scalars m));
  checki "two shed" 2 (List.assoc "shed" (Ldlp_obs.Metrics.scalars m));
  (* No intake limit: the scalar is not even registered, keeping
     existing stats sheets (and their goldens) unchanged. *)
  let m2 = Ldlp_obs.Metrics.create ~label:"noshed" ~layer_names:[ "l0" ] in
  let _sched2 =
    Engine.rx_chain ~discipline:Engine.Conventional
      ~layers:[ Layer.passthrough "l0" ]
      ~metrics:m2 ()
  in
  check "no scalar without a limit" false
    (List.mem_assoc "shed" (Ldlp_obs.Metrics.scalars m2))

let test_empty_stack_rejected () =
  check "empty stack raises" true
    (try
       ignore (Engine.rx_chain ~discipline:Engine.Conventional ~layers:[] ());
       false
     with Invalid_argument _ -> true)

(* ---------- Transmit chain ---------- *)

let tx_logging_stack ~discipline ~n =
  let log = ref [] in
  let wired = ref [] in
  let layers = List.init n (fun i -> Layer.passthrough (Printf.sprintf "L%d" i)) in
  let tx =
    Engine.tx_chain ~discipline ~layers
      ~wire:(fun m -> wired := m.Msg.id :: !wired)
      ~on_handled:(fun i _ m -> log := (i, m.Msg.id) :: !log)
      ()
  in
  (tx, log, wired)

(* Submissions enter the top node. *)
let tx_submit_n tx n =
  List.init n (fun i ->
      let m = Msg.make ~size:552 i in
      Engine.inject tx ~node:(Engine.node_count tx - 1) m;
      m.Msg.id)

let test_tx_conventional_order () =
  let tx, log, _ = tx_logging_stack ~discipline:Engine.Conventional ~n:3 in
  let ids = tx_submit_n tx 2 in
  Engine.run tx;
  let expected =
    match ids with
    | [ a; b ] -> [ (2, a); (1, a); (0, a); (2, b); (1, b); (0, b) ]
    | _ -> assert false
  in
  check "top-down depth-first" true (List.rev !log = expected)

let test_tx_ldlp_blocked_order () =
  let tx, log, _ = tx_logging_stack ~discipline:(Engine.Ldlp Batch.All) ~n:3 in
  let ids = tx_submit_n tx 3 in
  Engine.run tx;
  let expected =
    List.concat_map (fun layer -> List.map (fun id -> (layer, id)) ids) [ 2; 1; 0 ]
  in
  check "blocked, descending layers" true (List.rev !log = expected)

let test_tx_conservation () =
  List.iter
    (fun discipline ->
      let tx, _, wired = tx_logging_stack ~discipline ~n:4 in
      let ids = tx_submit_n tx 25 in
      Engine.run tx;
      check "all transmitted once" true
        (List.sort compare !wired = List.sort compare ids);
      checki "nothing pending" 0 (Engine.pending tx))
    [ Engine.Conventional; Engine.Ldlp Batch.paper_default; Engine.Ldlp (Batch.Fixed 3) ]

let test_tx_fifo_order_on_wire () =
  let tx, _, wired = tx_logging_stack ~discipline:(Engine.Ldlp Batch.paper_default) ~n:3 in
  let ids = tx_submit_n tx 20 in
  Engine.run tx;
  check "wire order = submission order" true (List.rev !wired = ids)

let test_tx_batch_cap () =
  let tx, _, _ = tx_logging_stack ~discipline:(Engine.Ldlp (Batch.Fixed 4)) ~n:2 in
  ignore (tx_submit_n tx 11);
  Engine.run tx;
  let st = Engine.stats tx in
  check "max batch <= 4" true (st.Engine.max_batch <= 4);
  checki "all transmitted" 11 st.Engine.to_down

let test_tx_lower_layer_priority () =
  (* With batch 1, each message must fully descend before the next is
     taken from the submission queue. *)
  let tx, log, _ = tx_logging_stack ~discipline:(Engine.Ldlp (Batch.Fixed 1)) ~n:2 in
  ignore (tx_submit_n tx 2);
  Engine.run tx;
  check "descend between batches" true (List.rev_map fst !log = [ 1; 0; 1; 0 ])

let test_tx_custom_handler () =
  (* A tx handler that encapsulates (grows the size) and one that absorbs
     every second message. *)
  let kept = ref 0 in
  let parity = ref 0 in
  let filter =
    Layer.v ~name:"filter"
      ~tx:(fun m ->
        incr parity;
        if !parity mod 2 = 0 then [ Layer.Consume ]
        else [ Layer.Send_down m ])
      (fun m -> [ Layer.Deliver_up m ])
  in
  let enc =
    Layer.v ~name:"enc"
      ~tx:(fun m -> [ Layer.Send_down (Msg.with_payload m m.Msg.payload ~size:(m.Msg.size + 20)) ])
      (fun m -> [ Layer.Deliver_up m ])
  in
  let tx =
    Engine.tx_chain ~discipline:Engine.Conventional ~layers:[ enc; filter ]
      ~wire:(fun m ->
        kept := !kept + 1;
        checki "header added" 120 m.Msg.size)
      ()
  in
  for _ = 1 to 6 do
    Engine.inject tx ~node:1 (Msg.make ~size:100 ())
  done;
  Engine.run tx;
  checki "half absorbed" 3 !kept;
  let st = Engine.stats tx in
  checki "consumed counted" 3 st.Engine.consumed

(* ---------- Blocking ---------- *)

let paper_stack =
  {
    Blocking.layer_code_bytes = [ 6144; 6144; 6144; 6144; 6144 ];
    layer_data_bytes = [ 256; 256; 256; 256; 256 ];
    msg_bytes = 552;
    cycles_per_msg = 5 * 1652;
  }

let test_blocking_paper_stack () =
  let r = Blocking.recommend Blocking.paper_machine paper_stack in
  check "small-message protocol" true (r.Blocking.message_class = `Small_message);
  checki "batch = dcache fit" 14 r.Blocking.batch;
  (* Paper arithmetic: conventional ~3.5k msg/s, LDLP ~9.9k msg/s. *)
  check
    (Printf.sprintf "conv max rate %.0f ~ 3.5k" r.Blocking.max_rate_conv)
    true
    (r.Blocking.max_rate_conv > 3000.0 && r.Blocking.max_rate_conv < 4000.0);
  check
    (Printf.sprintf "ldlp max rate %.0f ~ 9.9k" r.Blocking.max_rate_ldlp)
    true
    (r.Blocking.max_rate_ldlp > 8500.0 && r.Blocking.max_rate_ldlp < 11500.0);
  check "speedup > 2x" true (r.Blocking.speedup > 2.0)

let test_blocking_large_message () =
  let s = { paper_stack with Blocking.msg_bytes = 64 * 1024 } in
  let r = Blocking.recommend Blocking.paper_machine s in
  check "large-message protocol" true (r.Blocking.message_class = `Large_message);
  checki "blocking factor 1" 1 r.Blocking.batch

let test_blocking_resident_stack () =
  (* A stack that fits in the I-cache gets no code misses at all. *)
  let s =
    {
      Blocking.layer_code_bytes = [ 1024; 1024 ];
      layer_data_bytes = [ 64; 64 ];
      msg_bytes = 552;
      cycles_per_msg = 2000;
    }
  in
  let m = Blocking.misses_per_msg Blocking.paper_machine s ~batch:1 in
  Alcotest.(check (float 1e-9)) "only message lines" 18.0 m

let test_blocking_misses_monotone () =
  let m1 = Blocking.misses_per_msg Blocking.paper_machine paper_stack ~batch:1 in
  let m14 = Blocking.misses_per_msg Blocking.paper_machine paper_stack ~batch:14 in
  check "batching reduces misses" true (m14 < m1 /. 5.0)

let test_group_layers () =
  let m = Blocking.paper_machine in
  (* 10 x 3 KB packs pairwise into an 8 KB cache. *)
  Alcotest.(check (list (list int)))
    "pairs"
    (List.init 5 (fun _ -> [ 3072; 3072 ]))
    (Blocking.group_layers m (List.init 10 (fun _ -> 3072)));
  (* An oversized layer gets its own group and doesn't absorb others. *)
  Alcotest.(check (list (list int)))
    "oversized isolated"
    [ [ 1024 ]; [ 30000 ]; [ 1024; 2048 ] ]
    (Blocking.group_layers m [ 1024; 30000; 1024; 2048 ]);
  Alcotest.(check (list (list int))) "empty" [] (Blocking.group_layers m [])

(* ---------- Runtime ---------- *)

let pool = Ldlp_buf.Pool.create ()

let make_payload ~size = Ldlp_buf.Mbuf.of_bytes pool (Bytes.create (min size 1024))

let passthrough_layers n =
  List.init n (fun i -> Layer.passthrough (Printf.sprintf "L%d" i))

let test_runtime_light_load () =
  let workload =
    List.init 50 (fun i ->
        { Runtime.at = float_of_int i *. 0.01; size = 100; flow = 0 })
  in
  let r =
    Runtime.run ~discipline:Engine.Conventional ~layers:(passthrough_layers 3)
      ~make_payload workload
  in
  checki "all processed" 50 r.Runtime.processed;
  checki "no drops" 0 r.Runtime.dropped;
  check "latency recorded" true (Ldlp_sim.Hist.count r.Runtime.latency = 50)

let test_runtime_overload_drops () =
  (* Service ten times slower than arrival fills the 500-message buffer
     and must drop. *)
  let workload =
    List.init 1000 (fun i ->
        { Runtime.at = float_of_int i *. 0.001; size = 100; flow = 0 })
  in
  let r =
    Runtime.run ~discipline:Engine.Conventional ~layers:(passthrough_layers 2)
      ~make_payload
      ~service:(fun ~batch:_ _ -> 0.01)
      workload
  in
  check "drops under overload" true (r.Runtime.dropped > 0);
  checki "conservation" 1000 (r.Runtime.processed + r.Runtime.dropped)

let test_runtime_ldlp_batches_under_load () =
  let workload =
    List.init 100 (fun i ->
        { Runtime.at = float_of_int i *. 0.001; size = 552; flow = 0 })
  in
  let r =
    Runtime.run ~discipline:(Engine.Ldlp Batch.paper_default)
      ~layers:(passthrough_layers 3) ~make_payload
      ~service:(fun ~batch m ->
        (* Amortised service: fixed cost shared across the batch. *)
        0.002 /. float_of_int batch +. (1e-7 *. float_of_int m.Msg.size))
      workload
  in
  checki "no drops thanks to batching" 0 r.Runtime.dropped;
  check "batches formed" true (r.Runtime.stats.Engine.max_batch > 1)

let test_poisson_workload () =
  let rng = Ldlp_sim.Rng.create ~seed:5 in
  let w = Runtime.poisson_workload ~rng ~rate:1000.0 ~duration:1.0 ~size:552 in
  let n = List.length w in
  check "count plausible" true (n > 850 && n < 1150);
  check "times within duration" true
    (List.for_all (fun p -> p.Runtime.at >= 0.0 && p.Runtime.at < 1.0) w)

let suite =
  [
    Alcotest.test_case "msg ids unique" `Quick test_msg_ids_unique;
    Alcotest.test_case "msg with_payload" `Quick test_msg_with_payload;
    Alcotest.test_case "batch fixed" `Quick test_batch_fixed;
    Alcotest.test_case "batch all" `Quick test_batch_all;
    Alcotest.test_case "batch dcache fit (paper 14)" `Quick test_batch_dcache_fit_paper;
    Alcotest.test_case "batch oversized msg" `Quick test_batch_oversized_msg;
    QCheck_alcotest.to_alcotest prop_batch_bounds;
    QCheck_alcotest.to_alcotest prop_batch_fixed_cap;
    QCheck_alcotest.to_alcotest prop_batch_dcache_monotone;
    QCheck_alcotest.to_alcotest prop_batch_prefix_sum;
    Alcotest.test_case "conventional order" `Quick test_conventional_order;
    Alcotest.test_case "ldlp blocked order" `Quick test_ldlp_blocked_order;
    Alcotest.test_case "ldlp batch cap" `Quick test_ldlp_batch_cap_respected;
    Alcotest.test_case "ldlp priority" `Quick test_ldlp_priority_upper_first;
    Alcotest.test_case "send down / consume" `Quick test_send_down_and_consume;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_fifo_per_flow;
    Alcotest.test_case "stats per layer" `Quick test_stats_per_layer;
    Alcotest.test_case "intake shedding" `Quick test_intake_shedding;
    Alcotest.test_case "shed scalar only with limit" `Quick
      test_shed_scalar_only_with_limit;
    Alcotest.test_case "empty stack rejected" `Quick test_empty_stack_rejected;
    Alcotest.test_case "tx conventional order" `Quick test_tx_conventional_order;
    Alcotest.test_case "tx ldlp blocked order" `Quick test_tx_ldlp_blocked_order;
    Alcotest.test_case "tx conservation" `Quick test_tx_conservation;
    Alcotest.test_case "tx wire fifo" `Quick test_tx_fifo_order_on_wire;
    Alcotest.test_case "tx batch cap" `Quick test_tx_batch_cap;
    Alcotest.test_case "tx lower priority" `Quick test_tx_lower_layer_priority;
    Alcotest.test_case "tx custom handler" `Quick test_tx_custom_handler;
    Alcotest.test_case "blocking paper stack" `Quick test_blocking_paper_stack;
    Alcotest.test_case "blocking large message" `Quick test_blocking_large_message;
    Alcotest.test_case "blocking resident stack" `Quick test_blocking_resident_stack;
    Alcotest.test_case "blocking monotone" `Quick test_blocking_misses_monotone;
    Alcotest.test_case "group layers" `Quick test_group_layers;
    Alcotest.test_case "runtime light load" `Quick test_runtime_light_load;
    Alcotest.test_case "runtime overload drops" `Quick test_runtime_overload_drops;
    Alcotest.test_case "runtime ldlp batches" `Quick test_runtime_ldlp_batches_under_load;
    Alcotest.test_case "poisson workload" `Quick test_poisson_workload;
  ]
