(* CLI for regenerating every table and figure of the paper at chosen
   fidelity, and every seeded experiment.  The figure subcommands and `all`
   come from [Ldlp_report.Registry], the experiment subcommands from
   [Ldlp_report.Experiment].  `ldlp_repro all` prints everything at quick
   fidelity; `ldlp_repro fig6 --full` runs the paper's 100 layouts x 1 s. *)

open Cmdliner
open Ldlp_report

let params ~full ~runs ~seconds =
  let base = if full then Ldlp_model.Params.paper else Ldlp_model.Params.quick in
  let base =
    match runs with None -> base | Some r -> { base with Ldlp_model.Params.runs = r }
  in
  match seconds with
  | None -> base
  | Some s -> { base with Ldlp_model.Params.seconds = s }

let full_t =
  let doc = "Paper fidelity: 100 random layouts, 1 simulated second per run." in
  Arg.(value & flag & info [ "full" ] ~doc)

let runs_t =
  let doc = "Override the number of random-layout runs to average." in
  Arg.(value & opt (some int) None & info [ "runs" ] ~doc)

let seconds_t =
  let doc = "Override the simulated seconds per run." in
  Arg.(value & opt (some float) None & info [ "seconds" ] ~doc)

let seed_t =
  let doc = "PRNG seed." in
  Arg.(value & opt int 1996 & info [ "seed" ] ~doc)

let domains_t =
  let doc =
    "Worker domains for sweep evaluation.  Defaults to $(b,LDLP_DOMAINS) if \
     set, else the host's recommended domain count.  1 forces the \
     sequential path; any count produces identical output for the same seed."
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "domain count must be >= 1, got %d" n))
      | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some positive_int) None & info [ "domains"; "j" ] ~doc)

let out s = print_string s; print_newline ()

let run_stats ?domains ~json ~rate params seed =
  if json then
    print_string
      (Schema.render Schema.stats
         (Report.stats_doc (Report.observability_sheets ?domains ~params ~seed ~rate ())))
  else out (Report.observability ?domains ~params ~seed ~rate ())

let run_selftest domains =
  let domains = Option.value ~default:2 domains in
  if Ldlp_model.Figures.sweep_selftest ~domains () then
    Printf.printf
      "selftest OK: %d-domain sweeps byte-identical to sequential\n" domains
  else begin
    prerr_endline "selftest FAILED: parallel sweep diverged from sequential";
    exit 1
  end

let run_check seed =
  let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt in
  (* 1. Differential replay: production cache vs the naive LRU oracle. *)
  let steps = 10_000 in
  List.iter
    (fun (name, cfg) ->
      let rng = Ldlp_sim.Rng.create ~seed in
      let ops =
        Ldlp_check.Cache_oracle.random_ops ~rng
          ~hot_lines:(3 * Ldlp_cache.Config.lines cfg)
          steps
      in
      match Ldlp_check.Cache_oracle.differential cfg ops with
      | Ok n -> Printf.printf "cache differential %-13s %d steps, no divergence\n" name n
      | Error d ->
        fail "cache differential %s FAILED: %a" name
          Ldlp_check.Cache_oracle.pp_divergence d)
    [
      ("direct-mapped", Ldlp_cache.Config.paper_default);
      ("2-way", Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:2 ());
      ("4-way", Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:4 ());
      (* One set, LRU over all lines: the shared Replace machinery's
         LRU-stack geometry (the flow study's third scheme), covered by
         the same naive reference. *)
      ("full-LRU", Ldlp_cache.Config.v ~size_bytes:8192 ~line_bytes:32 ~associativity:256 ());
    ];
  (* 2. The flow study against its naive reference: every scheme's
     hits, misses and evictions in both disciplines, and the delivered
     states, on random small configurations. *)
  (match Ldlp_check.Flows_oracle.run ~seed ~cases:25 with
  | Ok n ->
    Printf.printf
      "flows differential: %d random study configs, all schemes, no \
       divergence\n"
      n
  | Error e -> fail "flows differential FAILED: %s" e);
  (* 3. Scheduler equivalence: Conventional vs LDLP over random stacks. *)
  let cases = 200 in
  (match Ldlp_check.Sched_oracle.run_random ~seed ~cases with
  | Ok n -> Printf.printf "sched equivalence: %d random workloads, no divergence\n" n
  | Error e -> fail "sched equivalence FAILED: %s" e);
  (* 4. LDLP_CHECK invariants on the real model, every discipline. *)
  Ldlp_core.Invariant.set_enabled true;
  let params =
    { Ldlp_model.Params.quick with Ldlp_model.Params.runs = 2; seconds = 0.05 }
  in
  (try
     List.iter
       (fun (name, discipline) ->
         let r =
           Ldlp_model.Simrun.run_avg ~params ~discipline ~seed
             ~make_source:(fun rng ->
               Ldlp_traffic.Source.limit_time
                 (Ldlp_traffic.Poisson.source ~rng ~rate:6000.0 ())
                 params.Ldlp_model.Params.seconds)
             ()
         in
         Printf.printf "invariants hold: %-12s (%d messages)\n" name
           r.Ldlp_model.Simrun.processed)
       [
         ("conventional", Ldlp_model.Simrun.Conventional);
         ("ilp", Ldlp_model.Simrun.Ilp);
         ("ldlp", Ldlp_model.Simrun.Ldlp);
       ]
   with Ldlp_core.Invariant.Violation what -> fail "invariant VIOLATED: %s" what);
  (* 5. Crash/restart recovery: conservation, eventual completion,
     cross-wiring equivalence and shard-merge exactness under a seeded
     host lifecycle plan. *)
  (match
     Ldlp_check.Recovery_oracle.run ~calls_per_pair:6
       (Experiment.crash_config ~victims:0.5 ~hosts:16 ~degree:3 ~seed)
   with
  | Ok n -> Printf.printf "recovery oracle: %d checks, no divergence\n" n
  | Error d ->
    fail "recovery oracle FAILED: %a" Ldlp_check.Recovery_oracle.pp_divergence d);
  print_endline "check OK"

let run_shards seed =
  let s = Shards.run ~seed in
  print_string (String.trim s.text ^ "\n\n");
  List.iter (Printf.eprintf "FAIL: %s\n") s.failures;
  if s.failures <> [] then exit 1;
  print_endline "shards OK"

let run_selfsim seed seconds path =
  let rng = Ldlp_sim.Rng.create ~seed in
  let source =
    Ldlp_traffic.Source.limit_time (Ldlp_traffic.Onoff.source ~rng ()) seconds
  in
  let packets = Ldlp_traffic.Source.to_list source in
  (match path with
  | Some p ->
    Ldlp_traffic.Tracefile.save p packets;
    Printf.printf "wrote %d packets to %s\n" (List.length packets) p
  | None -> ());
  let rate = float_of_int (List.length packets) /. seconds in
  let h = Ldlp_traffic.Hurst.of_packets ~bin:0.05 ~horizon:seconds packets in
  Printf.printf
    "self-similar trace: %d packets over %.0f s (%.0f pkt/s), Hurst ~ %.2f\n"
    (List.length packets) seconds rate h;
  (* Poisson reference at the same rate. *)
  let rng = Ldlp_sim.Rng.create ~seed:(seed + 1) in
  let poisson =
    Ldlp_traffic.Source.to_list
      (Ldlp_traffic.Source.limit_time
         (Ldlp_traffic.Poisson.source ~rng ~rate ())
         seconds)
  in
  Printf.printf "poisson reference at the same rate: Hurst ~ %.2f\n"
    (Ldlp_traffic.Hurst.of_packets ~bin:0.05 ~horizon:seconds poisson)

let run_hurst path =
  let packets = Ldlp_traffic.Tracefile.load path in
  match packets with
  | [] -> print_endline "empty trace"
  | first :: _ ->
    let last = List.nth packets (List.length packets - 1) in
    let horizon = last.Ldlp_traffic.Source.at -. first.Ldlp_traffic.Source.at in
    let shifted =
      List.map
        (fun p ->
          { p with Ldlp_traffic.Source.at = p.Ldlp_traffic.Source.at -. first.Ldlp_traffic.Source.at })
        packets
    in
    Printf.printf "%d packets over %.1f s: Hurst ~ %.2f\n" (List.length packets)
      horizon
      (Ldlp_traffic.Hurst.of_packets ~bin:(horizon /. 1024.0) ~horizon shifted)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

(* A figure subcommand prints its registry entries against one context,
   and takes the options of the most demanding of them. *)
let figure_cmd name doc figures =
  let run ?domains ?params ?seed () =
    let ctx = Registry.context ?domains ?params ?seed () in
    List.iter (fun (f : Registry.t) -> out (f.render ctx)) figures
  in
  let inputs =
    List.fold_left (fun acc (f : Registry.t) -> max acc f.inputs) Registry.Fixed figures
  in
  cmd name doc
    (match inputs with
    | Registry.Fixed -> Term.(const (fun () -> run ()) $ const ())
    | Seeded -> Term.(const (fun seed domains -> run ?domains ~seed ()) $ seed_t $ domains_t)
    | Swept ->
      Term.(
        const (fun full runs seconds seed domains ->
            run ?domains ~params:(params ~full ~runs ~seconds) ~seed ())
        $ full_t $ runs_t $ seconds_t $ seed_t $ domains_t))

let figure_cmds =
  List.filter_map
    (fun (f : Registry.t) ->
      match List.filter (fun (g : Registry.t) -> g.command = f.command) Registry.all with
      | first :: _ as group when first == f -> Some (figure_cmd f.command f.doc group)
      | _ -> None)
    Registry.all
  @ [ figure_cmd "all" "Every table and figure, in order." Registry.all ]

(* An experiment subcommand prints its figure, writes its document, and
   exits 1 when a gate fails. *)
let experiment_cmd (e : Experiment.t) =
  let run seed domains path =
    let o = e.run ?domains ~seed () in
    print_string (String.trim o.text ^ "\n\n");
    Experiment.write path o.doc;
    List.iter (Printf.eprintf "FAIL: %s\n") o.failures;
    if o.failures <> [] then exit 1;
    Printf.printf "%s OK\n" e.name
  in
  cmd e.name (e.doc ^ "  Nonzero exit on any failure.")
    Term.(
      const run $ seed_t $ domains_t
      $ Arg.(
          value
          & opt string ("BENCH_" ^ e.name ^ ".json")
          & info [ "o" ] ~docv:"PATH" ~doc:"Where to write the JSON document."))

let cmds =
  figure_cmds
  @ List.map experiment_cmd Experiment.all
  @ [
    cmd "stats"
      "Per-layer observability counters (cycles, stalls, i/d/w-misses, \
       quanta, queue peaks) for Conventional vs LDLP under Poisson load, \
       merged over the run set.  Deterministic per seed; --json emits the \
       ldlp-stats/1 document."
      Term.(
        const (fun full runs seconds seed domains json rate ->
            run_stats ?domains ~json ~rate (params ~full ~runs ~seconds) seed)
        $ full_t $ runs_t $ seconds_t $ seed_t $ domains_t
        $ Arg.(
            value & flag
            & info [ "json" ]
                ~doc:"Emit the ldlp-stats/1 JSON document instead of text.")
        $ Arg.(
            value
            & opt float 9000.0
            & info [ "rate" ] ~doc:"Poisson arrival rate in messages/second."));
    cmd "check"
      "Differential oracles: replay random access streams through the \
       production cache and a naive LRU reference, replay random flow-table \
       workloads against its naive references, assert Conventional and LDLP \
       scheduling are behaviourally equivalent on random stacks, run the \
       cycle model with LDLP_CHECK invariants enabled, and run the \
       crash-recovery oracle on a 16-host call storm.  Nonzero exit on any \
       failure."
      Term.(const run_check $ seed_t);
    cmd "selftest"
      "Assert that the parallel sweep engine reproduces the sequential \
       results exactly (same seeds, same tables)."
      Term.(const run_selftest $ domains_t);
    cmd "shards"
      "Sharded call storm: the Q.93B call storm of BENCH_shards.json at 1, \
       2 and 4 shards, with each row's components, completed calls, busiest \
       shard's modeled CPU seconds and CPU-limited pairs/s.  Gates: every \
       row equals the single-domain storm, conserves messages and leaks \
       nothing, and the CPU-limited rate rises with the shard count.  \
       Nonzero exit on any failure."
      Term.(const run_shards $ seed_t);
    Cmd.v
      (Cmd.info "selfsim"
         ~doc:
           "Generate a self-similar Ethernet-like trace (the Bellcore \
            substitute), report its Hurst estimate, optionally save it.")
      Term.(
        const (fun seed seconds path -> run_selfsim seed seconds path)
        $ seed_t
        $ Arg.(value & opt float 120.0 & info [ "duration" ] ~doc:"Seconds of trace.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "o"; "output" ] ~doc:"Trace file to write."));
    Cmd.v
      (Cmd.info "hurst" ~doc:"Estimate the Hurst parameter of a saved trace.")
      Term.(
        const run_hurst
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"TRACE" ~doc:"Trace file (\"time size\" lines)."));
  ]

let () =
  let info =
    Cmd.info "ldlp_repro" ~version:"1.0.0"
      ~doc:
        "Reproduce the tables and figures of 'Speeding up Protocols for \
         Small Messages' (SIGCOMM '96)."
  in
  exit (Cmd.eval (Cmd.group info cmds))
