module Mesh = Ldlp_mesh.Mesh

type outcome = {
  text : string;
  doc : Schema.t * Schema.value list;
  failures : string list;
}

type t = {
  name : string;
  doc : string;
  run : ?domains:int -> seed:int -> unit -> outcome;
}

let gate ok msg = if ok then [] else [ msg ]

(* An oracle's verdict as a gate: no failure, or one naming [what]. *)
let oracle what pp = function
  | Ok _ -> []
  | Error d -> [ Format.asprintf "%s: %a" what pp d ]

(* The loss ladder is the document: goodput and retransmissions per
   symmetric frame-loss rate, as the paper's lossless-LAN assumption is
   relaxed.  Full-duplex hosts put byte-identical frames on the wire, so
   their scenario reports must equal the classic ones. *)
let soak =
  {
    name = "soak";
    doc =
      "Chaos soak: the goodput-vs-loss ladder, and 25 seeded chaos scenarios \
       over the tcpmini echo exchange under both scheduling disciplines, with \
       classic and with full-duplex hosts.  Gates: integrity, leak freedom and \
       Conventional/LDLP equivalence everywhere, and duplex reports equal to \
       the classic ones.";
    run =
      (fun ?domains ~seed () ->
        let module Soak = Ldlp_soak.Soak in
        let ladder = Soak.loss_ladder ~seed ~rates:[ 0.0; 0.01; 0.02; 0.05; 0.1 ] in
        let scenarios = Soak.scenarios ~seed ~count:25 in
        let classic = Soak.run_all ?domains scenarios in
        let duplex = Soak.run_all ?domains ~duplex:true scenarios in
        let id (r : Soak.report) = r.Soak.scenario.Soak.id in
        let scenario_ok hosts r =
          gate (Soak.report_ok r)
            (Printf.sprintf "soak scenario %d failed under %s hosts" (id r) hosts)
        in
        let rung (r : Soak.ladder_row) =
          Schema.
            [
              F r.Soak.loss; F r.Soak.goodput; I r.Soak.ladder_retransmits;
              F r.Soak.ladder_completion; B r.Soak.ok;
            ]
        in
        {
          text = Soak.render classic;
          (* Each rung echoes 32 chunks of 64 bytes. *)
          doc =
            (Schema.soak, Schema.[ I seed; I 32; I 64; Rows (List.map rung ladder) ]);
          failures =
            List.concat_map
              (fun (r : Soak.ladder_row) ->
                gate r.Soak.ok
                  (Printf.sprintf
                     "soak ladder rung at %g loss lost integrity or leaked mbufs"
                     r.Soak.loss))
              ladder
            @ List.concat_map (scenario_ok "classic") classic
            @ List.concat_map (scenario_ok "full-duplex") duplex
            @ List.concat
                (List.map2
                   (fun c d ->
                     gate (c = d)
                       (Printf.sprintf
                          "soak scenario %d: the full-duplex report differs from \
                           the classic one"
                          (id c)))
                   classic duplex);
        });
  }

(* One spread row per pristine and chaos run (the chaos wiring tagged
   "+chaos") and one storm row per call storm. *)
let mesh_doc ~seed ~degree points =
  let module Hist = Ldlp_sim.Hist in
  let spread hosts suffix (s : Mesh.spread) =
    let lat = s.Mesh.latency in
    Schema.
      [
        I hosts; S (Mesh.wiring_name s.Mesh.s_wiring ^ suffix); I s.Mesh.reach;
        F (Hist.percentile lat 0.50); F (Hist.percentile lat 0.90);
        F (Hist.percentile lat 0.99); F (Hist.max lat); F (Hist.mean lat);
        I s.Mesh.reloads; F s.Mesh.mean_batch; F s.Mesh.cpu_seconds;
        B (s.Mesh.s_conserved && s.Mesh.leak_free);
      ]
  in
  let storm hosts (t : Mesh.storm) =
    Schema.
      [
        I hosts; S (Mesh.wiring_name t.Mesh.t_wiring); I t.Mesh.pairs;
        I t.Mesh.calls_requested; I t.Mesh.calls_completed;
        F (Mesh.storm_wire_rate t); F (Mesh.storm_cpu_us_per_pair t);
        F (Mesh.storm_cpu_rate t); B (t.Mesh.t_conserved && t.Mesh.t_leak_free);
      ]
  in
  Schema.
    [
      I seed; I degree; F Mesh.goal_pairs_per_sec;
      Rows
        (List.concat_map
           (fun ((cfg : Mesh.config), pristine, chaos, _) ->
             List.map (spread cfg.Mesh.hosts "") pristine
             @ List.map (spread cfg.Mesh.hosts "+chaos") chaos)
           points);
      Rows
        (List.concat_map
           (fun ((cfg : Mesh.config), _, _, storms) ->
             List.map (storm cfg.Mesh.hosts) storms)
           points);
    ]

(* Both clocks are simulated, so every gate is exact, not statistical. *)
let mesh =
  {
    name = "mesh";
    doc =
      "Many-host mesh at 64, 256 and 1024 hosts: seeded broadcasts over a \
       random-regular topology of full protocol stacks under all three \
       wirings (conventional, LDLP, full-duplex LDLP), the chaos-impaired \
       spread at 256 hosts, and the Q.93B call storm against the paper's \
       10 000 pairs/s goal.  Gates: the conservation and cross-wiring \
       equivalence oracles, fewer LDLP reloads than conventional, and the \
       storms' conservation and leak audit.";
    run =
      (fun ?domains ~seed () ->
        let module Oracle = Ldlp_check.Mesh_oracle in
        let degree = 4 in
        let check what spreads =
          let reloads wiring =
            (List.find (fun (s : Mesh.spread) -> s.Mesh.s_wiring = wiring) spreads)
              .Mesh.reloads
          in
          List.concat_map
            (fun (s : Mesh.spread) ->
              oracle
                (Printf.sprintf "%s [%s] conservation" what
                   (Mesh.wiring_name s.Mesh.s_wiring))
                Oracle.pp_divergence (Oracle.conservation s))
            spreads
          @ oracle (what ^ " equivalence") Oracle.pp_divergence
              (Oracle.equivalence spreads)
          @ gate
              (reloads Mesh.Ldlp < reloads Mesh.Conv)
              (Printf.sprintf "%s: LDLP reloads %d not below conventional %d" what
                 (reloads Mesh.Ldlp) (reloads Mesh.Conv))
        in
        let point hosts =
          let cfg = Mesh.config ~hosts ~degree ~seed () in
          let pristine = Mesh.compare_spread ?domains cfg in
          let chaos =
            if hosts <> 256 then []
            else Mesh.compare_spread ?domains { cfg with Mesh.plan = Mesh.chaos_plan }
          in
          let storms = Mesh.compare_storm ?domains cfg in
          let failures =
            check (Printf.sprintf "mesh %d-host pristine" hosts) pristine
            @ (if chaos = [] then []
               else check (Printf.sprintf "mesh %d-host chaos" hosts) chaos)
            @ List.concat_map
                (fun (t : Mesh.storm) ->
                  gate
                    (t.Mesh.t_conserved && t.Mesh.t_leak_free)
                    (Printf.sprintf "mesh %d-host storm [%s] conservation/leak audit"
                       hosts
                       (Mesh.wiring_name t.Mesh.t_wiring)))
                storms
          in
          ((cfg, pristine, chaos, storms), failures)
        in
        let points, failures = List.split (List.map point [ 64; 256; 1024 ]) in
        {
          text =
            String.concat "\n"
              (List.map
                 (fun (cfg, pristine, chaos, storms) ->
                   Mesh.render cfg ~pristine ~chaos ~storms)
                 points);
          doc = (Schema.mesh, mesh_doc ~seed ~degree points);
          failures = List.concat failures;
        });
  }

let crash_config ~victims ~hosts ~degree ~seed =
  Mesh.config ~hosts ~degree ~seed
    ~lifecycle:
      (Ldlp_fault.Plan.lifecycle ~victims ~episodes:2 ~min_outage:0.002
         ~mean_outage:0.01 ~flap:0.25 ~seed:(seed lxor 0x6c696665) ~hosts
         ~horizon:0.02 ())
    ()

let recovery =
  {
    name = "recovery";
    doc =
      "Crash/restart recovery: the Q.93B call storm at 32 hosts under the \
       canonical crash plan with 25%, 50% and 100% of hosts crashing, \
       through the deterministic retry/backoff/admission engine.  Gates: \
       the recovery oracle on every rung, at least half the calls completed \
       and positive goodput.";
    run =
      (fun ?domains ~seed () ->
        let hosts = 32 and degree = 4 and calls_per_pair = 6 in
        let rung (victims, suffix) =
          let cfg = crash_config ~victims ~hosts ~degree ~seed in
          let storms = Mesh.compare_storm ?domains ~calls_per_pair cfg in
          let episodes = Ldlp_fault.Plan.lifecycle_episodes cfg.Mesh.lifecycle in
          let row (t : Mesh.storm) =
            let ttr = Mesh.storm_ttr_sorted t in
            Schema.
              [
                S (Mesh.wiring_name t.Mesh.t_wiring ^ suffix); I episodes;
                I t.Mesh.calls_requested; I t.Mesh.calls_completed;
                I t.Mesh.calls_abandoned; I t.Mesh.calls_retried;
                I t.Mesh.setups_deferred; F (Mesh.storm_goodput t);
                F (Mesh.storm_retry_amplification t);
                F (Mesh.ttr_percentile ttr 0.50); F (Mesh.ttr_percentile ttr 0.99);
                B (t.Mesh.t_conserved && t.Mesh.t_leak_free && Mesh.storm_complete t);
              ]
          in
          (* Even with every host crashing twice, at least half the offered
             calls complete and goodput stays positive. *)
          let floor (t : Mesh.storm) =
            let wiring = Mesh.wiring_name t.Mesh.t_wiring ^ suffix in
            gate
              (2 * t.Mesh.calls_completed >= t.Mesh.calls_requested)
              (Printf.sprintf "%s: only %d/%d calls completed under crashes" wiring
                 t.Mesh.calls_completed t.Mesh.calls_requested)
            @ gate (Mesh.storm_goodput t > 0.0)
                (Printf.sprintf "%s: zero goodput under crashes" wiring)
          in
          ( Mesh.render_recovery cfg ~storms,
            List.map row storms,
            oracle ("rung " ^ suffix ^ ": recovery oracle")
              Ldlp_check.Recovery_oracle.pp_divergence
              (Ldlp_check.Recovery_oracle.run ?domains ~calls_per_pair cfg)
            @ List.concat_map floor storms )
        in
        let rungs = List.map rung [ (0.25, "+v25"); (0.5, "+v50"); (1.0, "+v100") ] in
        {
          text = String.concat "\n" (List.map (fun (text, _, _) -> text) rungs);
          doc =
            ( Schema.recovery,
              Schema.
                [
                  I seed; I hosts; I degree;
                  Rows (List.concat_map (fun (_, rows, _) -> rows) rungs);
                ] );
          failures = List.concat_map (fun (_, _, failures) -> failures) rungs;
        });
  }

let flows =
  {
    name = "flows";
    doc =
      "Flow-table data-locality study at 10k, 100k and 1M flows: modeled \
       D-misses per lookup, conventional vs LDLP batch-sorted, per \
       replacement scheme.  Gates: the flows oracle (the study against a \
       naive reference on random small configurations), per-row \
       conservation, delivered-state digest equality and the LDLP D-miss \
       win from 100k flows up.  The study has no parallel path, so it \
       ignores --domains.";
    run =
      (fun ?domains:_ ~seed () ->
        let module Study = Ldlp_flowtable.Study in
        let config = Study.bench in
        let rows =
          List.concat_map
            (fun flows -> Study.run ~config ~flows ~seed ())
            [ 10_000; 100_000; 1_000_000 ]
        in
        (* A row holds when its counters are conserved, it delivered the
           same states as the conventional row of its scheme, and, from
           100k flows up, LDLP takes strictly fewer modeled D-misses. *)
        let row_ok r =
          let conv =
            List.find
              (fun c ->
                c.Study.r_flows = r.Study.r_flows
                && c.Study.r_scheme = r.Study.r_scheme
                && not c.Study.r_ldlp)
              rows
          in
          r.Study.r_found = r.Study.r_lookups
          && r.Study.r_model_hits + r.Study.r_model_misses = r.Study.r_lookups
          && r.Study.r_digest = conv.Study.r_digest
          && ((not r.Study.r_ldlp)
             || r.Study.r_flows < 100_000
             || r.Study.r_model_misses < conv.Study.r_model_misses)
        in
        let discipline r = if r.Study.r_ldlp then "ldlp" else "conv" in
        let scheme r = Study.scheme_name r.Study.r_scheme in
        let row r =
          Schema.
            [
              I r.Study.r_flows; S (scheme r); S (discipline r); I r.Study.r_lookups;
              I r.Study.r_model_misses; F (Study.misses_per_lookup r);
              I r.Study.r_model_evictions; I r.Study.r_digest; B (row_ok r);
            ]
        in
        {
          text = Study.render ~config ~rows ~seed ();
          doc =
            ( Schema.flows,
              Schema.
                [
                  I seed; I config.Study.slots; I config.Study.batch;
                  Rows (List.map row rows);
                ] );
          failures =
            oracle "flows oracle" Format.pp_print_string
              (Ldlp_check.Flows_oracle.run ~seed ~cases:25)
            @ List.concat_map
                (fun r ->
                  gate (row_ok r)
                    (Printf.sprintf "%s/%s at %d flows failed its row gate"
                       (scheme r) (discipline r) r.Study.r_flows))
                rows;
        });
  }

let all = [ soak; mesh; recovery; flows ]

let write path (schema, values) =
  let text = Schema.render schema values in
  let doc =
    match Schema.parse schema text with
    | Ok doc -> doc
    | Error e -> failwith (path ^ " fails its own schema: " ^ e)
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let cell = function
    | Json.Num s | Json.Str s -> s
    | Json.Bool b -> string_of_bool b
    | _ -> "-"
  in
  (match doc with
  | Json.Obj members ->
    List.iter
      (function
        | key, Json.Arr (Json.Obj first :: _ as rows) ->
          Printf.printf "%s:\n%s" key
            (Ldlp_sim.Table.render ~header:(List.map fst first)
               (List.map
                  (function
                    | Json.Obj row -> List.map (fun (_, v) -> cell v) row
                    | _ -> [])
                  rows))
        | key, v -> Printf.printf "%s: %s\n" key (cell v))
      members
  | _ -> ());
  Printf.printf "wrote %s\n" path
