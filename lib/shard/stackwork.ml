open Ldlp_core

type behaviour = Pass | Consume_every of int | Reply_every of int

type spec = {
  sp_groups : int;
  sp_layers : behaviour list array;
  sp_policy : Batch.policy;
  sp_init : (int * int) list array;
  sp_seed : int;
  sp_crash : (int * int * int) list;
}

let validate_crash spec =
  List.iter
    (fun (g, down, up) ->
      if g < 0 || g >= spec.sp_groups then
        invalid_arg "Stackwork: crash group out of range";
      if down < 1 then invalid_arg "Stackwork: crash before round 1";
      if up <= down then invalid_arg "Stackwork: empty crash window")
    spec.sp_crash;
  let by_group =
    List.sort compare
      (List.map (fun (g, d, u) -> (g, d, u)) spec.sp_crash)
  in
  ignore
    (List.fold_left
       (fun prev (g, d, u) ->
         (match prev with
         | Some (g', _, u') when g' = g && d < u' ->
           invalid_arg "Stackwork: overlapping crash windows"
         | _ -> ());
         Some (g, d, u))
       None by_group)

let dead_at spec ~group ~round =
  List.exists
    (fun (g, down, up) -> g = group && down <= round && round < up)
    spec.sp_crash

(* A self-contained LCG (Numerical Recipes constants) so spec drawing
   never touches the global [Random] state. *)
let lcg state =
  state := ((!state * 1664525) + 1013904223) land 0x3FFFFFFF;
  !state

let rand_int state bound = lcg state mod bound

let random_spec ?groups ?(crash = false) ~seed () =
  let st = ref (seed land 0x3FFFFFFF) in
  ignore (lcg st);
  let groups =
    match groups with Some g -> max 1 g | None -> 2 + rand_int st 5
  in
  let behaviour () =
    match rand_int st 4 with
    | 0 | 1 -> Pass
    | 2 -> Consume_every (2 + rand_int st 4)
    | _ -> Reply_every (2 + rand_int st 4)
  in
  let layers =
    Array.init groups (fun _ ->
        List.init (2 + rand_int st 3) (fun _ -> behaviour ()))
  in
  let policy =
    match rand_int st 3 with
    | 0 -> Batch.Fixed (1 + rand_int st 7)
    | 1 -> Batch.All
    | _ -> Batch.paper_default
  in
  let init =
    Array.init groups (fun g ->
        List.init
          (1 + rand_int st 8)
          (fun i -> ((g * 100) + i + rand_int st 50, rand_int st 4)))
  in
  (* Crash windows draw after every legacy field, so [(seed, groups)]
     keeps producing byte-identical crash-free specs. *)
  let crashes =
    if not crash then []
    else
      List.filter_map Fun.id
        (List.init groups (fun g ->
             if rand_int st 3 <> 0 then None
             else
               let down = 1 + rand_int st 3 in
               Some (g, down, down + 1 + rand_int st 2)))
  in
  let spec =
    { sp_groups = groups; sp_layers = layers; sp_policy = policy;
      sp_init = init; sp_seed = seed; sp_crash = crashes }
  in
  validate_crash spec;
  spec

let pp_behaviour ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Consume_every k -> Format.fprintf ppf "consume/%d" k
  | Reply_every k -> Format.fprintf ppf "reply/%d" k

let pp_spec ppf s =
  Format.fprintf ppf "seed=%d groups=%d policy=%a stacks=[%s]%s" s.sp_seed
    s.sp_groups Batch.pp s.sp_policy
    (String.concat " | "
       (Array.to_list
          (Array.map
             (fun ls ->
               String.concat ";"
                 (List.map (Format.asprintf "%a" pp_behaviour) ls))
             s.sp_layers)))
    (match s.sp_crash with
    | [] -> ""
    | cs ->
      " crash="
      ^ String.concat ","
          (List.map (fun (g, d, u) -> Printf.sprintf "g%d@%d-%d" g d u) cs))

type group_report = {
  gr_group : int;
  gr_digest : string list;
  gr_emits : (int * int * int) list;
  gr_injected : int;
  gr_delivered : int;
  gr_consumed : int;
  gr_sent_down : int;
  gr_pool_outstanding : int;
  gr_handoff_in : int;
  gr_crashed : int;
}

type report = {
  r_groups : group_report array;
  r_stats : Shard.run_stats;
}

(* The payload that crosses the handoff: plain immutable data, never a
   [Msg.t] — message records belong to one shard's pool and must not
   travel. *)
type value = { v_tag : int; v_ttl : int }

type gstate = {
  g : int;
  pool : value Msg.pool;
  eng : value Engine.t;
  mutable digest : string list;  (* reversed *)
  mutable emits : (int * int * int) list;  (* reversed *)
  mutable seeded : bool;
  mutable handoff_in : int;  (* handoff deliveries accepted while alive *)
  mutable crashed_in : int;  (* handoff deliveries dropped while dead *)
}

let divides k n = k > 0 && n mod k = 0

let layer_of_behaviour i behaviour =
  Layer.v
    ~name:(Format.asprintf "L%d-%a" i pp_behaviour behaviour)
    (fun msg ->
      let v = msg.Msg.payload in
      match behaviour with
      | Pass -> [ Layer.Deliver_up msg ]
      | Consume_every k ->
        if divides k v.v_tag then [ Layer.Consume ]
        else [ Layer.Deliver_up msg ]
      | Reply_every k ->
        if divides k v.v_tag then
          [
            Layer.Send_down (Msg.make ~size:40 { v_tag = -v.v_tag; v_ttl = 0 });
            Layer.Deliver_up msg;
          ]
        else [ Layer.Deliver_up msg ])

let run ?(policy = Shard.Policy.Affinity) ~shards spec =
  validate_crash spec;
  let groups = spec.sp_groups in
  let make ~shard:_ ~groups:mine ~emit =
    let dummy = { v_tag = 0; v_ttl = 0 } in
    let mk_gstate g =
      let pool = Msg.pool ~capacity:16 ~dummy () in
      let gs_ref = ref None in
      let up m =
        let gs = Option.get !gs_ref in
        let v = m.Msg.payload in
        gs.digest <-
          Printf.sprintf "o%d~%d" v.v_tag v.v_ttl :: gs.digest;
        if v.v_ttl > 0 then begin
          let dst = (g + 1) mod groups in
          gs.emits <- (dst, v.v_tag, v.v_ttl - 1) :: gs.emits;
          emit ~src_group:g ~dst_group:dst
            { v_tag = v.v_tag; v_ttl = v.v_ttl - 1 }
        end;
        Msg.release pool m
      in
      let eng =
        Engine.rx_chain
          ~discipline:(Engine.Ldlp spec.sp_policy)
          ~layers:(List.mapi layer_of_behaviour spec.sp_layers.(g))
          ~up
          ~down:(fun _ -> ())
          ~on_consume:(fun m -> Msg.release pool m)
          ()
      in
      let gs =
        { g; pool; eng; digest = []; emits = []; seeded = false;
          handoff_in = 0; crashed_in = 0 }
      in
      gs_ref := Some gs;
      gs
    in
    let states = List.map (fun g -> (g, mk_gstate g)) mine in
    let find g = List.assoc g states in
    let inject gs v =
      Engine.inject gs.eng ~node:0
        (Msg.acquire gs.pool ~flow:v.v_tag ~arrival:0.0 ~size:64 v)
    in
    (* [w_deliver] carries no round, but every delivery sits between
       step [r - 1] and step [r] of its destination, so the round a
       delivery belongs to is the last stepped round plus one — a global
       property of the round loop, independent of where the groups are
       placed. *)
    let last_step = ref (-1) in
    {
      Shard.w_deliver =
        (fun ~src_group:_ ~dst_group v ->
          let gs = find dst_group in
          if dead_at spec ~group:dst_group ~round:(!last_step + 1) then
            gs.crashed_in <- gs.crashed_in + 1
          else begin
            gs.handoff_in <- gs.handoff_in + 1;
            inject gs v
          end);
      w_step =
        (fun ~round ->
          last_step := round;
          List.iter
            (fun (g, gs) ->
              if not (dead_at spec ~group:g ~round) then begin
                if not gs.seeded then begin
                  gs.seeded <- true;
                  List.iter
                    (fun (tag, ttl) -> inject gs { v_tag = tag; v_ttl = ttl })
                    spec.sp_init.(g)
                end;
                Engine.run gs.eng
              end)
            states;
          false);
      w_finish =
        (fun () ->
          List.map
            (fun (_, gs) ->
              let st = Engine.stats gs.eng in
              let ps = Msg.pool_stats gs.pool in
              {
                gr_group = gs.g;
                gr_digest = List.rev gs.digest;
                gr_emits = List.rev gs.emits;
                gr_injected = st.Engine.injected;
                gr_delivered = st.Engine.to_up;
                gr_consumed = st.Engine.consumed;
                gr_sent_down = st.Engine.to_down;
                gr_pool_outstanding = ps.Msg.p_outstanding;
                gr_handoff_in = gs.handoff_in;
                gr_crashed = gs.crashed_in;
              })
            states);
    }
  in
  let results, stats = Shard.run ~policy ~shards ~groups ~make () in
  let by_group = Array.make groups None in
  Array.iter
    (fun reports ->
      List.iter (fun gr -> by_group.(gr.gr_group) <- Some gr) reports)
    results;
  {
    r_groups =
      Array.map
        (function
          | Some gr -> gr
          | None -> failwith "Stackwork.run: group without report")
        by_group;
    r_stats = stats;
  }

let wire_multiset r =
  Array.to_list r.r_groups
  |> List.concat_map (fun gr ->
         List.map
           (fun (dst, tag, ttl) -> (gr.gr_group, dst, tag, ttl))
           gr.gr_emits)
  |> List.sort compare

let crashed_total r =
  Array.fold_left (fun acc gr -> acc + gr.gr_crashed) 0 r.r_groups

let ledger_ok r =
  Array.for_all
    (fun gr ->
      gr.gr_injected = gr.gr_delivered + gr.gr_consumed
      && List.length gr.gr_emits
         = List.length (List.filter (fun d -> not (String.ends_with ~suffix:"~0" d)) gr.gr_digest)
      && gr.gr_pool_outstanding = 0)
    r.r_groups
  (* Crash conservation: every handoff emission addressed to a group was
     either accepted by it or ledgered against its outage — none lost
     silently. *)
  && Array.for_all
       (fun gr ->
         let addressed =
           Array.fold_left
             (fun acc src ->
               acc
               + List.length
                   (List.filter (fun (dst, _, _) -> dst = gr.gr_group)
                      src.gr_emits))
             0 r.r_groups
         in
         addressed = gr.gr_handoff_in + gr.gr_crashed)
       r.r_groups

let totals r =
  Array.fold_left
    (fun (i, d, c) gr ->
      (i + gr.gr_injected, d + gr.gr_delivered, c + gr.gr_consumed))
    (0, 0, 0) r.r_groups

let strip gr =
  ( gr.gr_group, gr.gr_digest, gr.gr_emits, gr.gr_injected, gr.gr_delivered,
    gr.gr_consumed, gr.gr_sent_down, gr.gr_pool_outstanding,
    (gr.gr_handoff_in, gr.gr_crashed) )

let equal_reports a b =
  Array.length a.r_groups = Array.length b.r_groups
  && Array.for_all2 (fun x y -> strip x = strip y) a.r_groups b.r_groups

let diff_reports a b =
  if Array.length a.r_groups <> Array.length b.r_groups then
    Some
      (Printf.sprintf "group counts differ: %d vs %d"
         (Array.length a.r_groups) (Array.length b.r_groups))
  else
    let n = Array.length a.r_groups in
    let rec go g =
      if g >= n then None
      else
        let x = a.r_groups.(g) and y = b.r_groups.(g) in
        if x.gr_digest <> y.gr_digest then
          Some
            (Printf.sprintf "group %d delivered streams differ: [%s] vs [%s]"
               g
               (String.concat ";" x.gr_digest)
               (String.concat ";" y.gr_digest))
        else if x.gr_emits <> y.gr_emits then
          Some (Printf.sprintf "group %d emissions differ" g)
        else if strip x <> strip y then
          Some (Printf.sprintf "group %d ledgers differ" g)
        else go (g + 1)
    in
    go 0
