(* Golden-figure generator: writes the canonical quick-fidelity text
   rendering of every figure in the registry, plus the observability,
   soak, mesh, fault-plan, recovery, flow-table and sharded-storm
   figures, to <name>.out in the current directory.  The dune rules in
   this directory diff each .out against the committed <name>.expected
   snapshot; `make promote` (dune promote) updates the snapshots after an
   intentional change.

   Everything here must be deterministic across hosts: fixed seed (the
   trace-derived figures read the calibrated trace), quick fidelity, and
   domains = 1 so the sweep engine takes the sequential path (the
   parallel path is byte-identical by selftest, but pinning one domain
   keeps the goldens independent of host core count). *)

let seed = 1996

let domains = 1

let params = Ldlp_model.Params.quick

let write name s =
  Out_channel.with_open_bin (name ^ ".out") (fun oc ->
      Out_channel.output_string oc s;
      Out_channel.output_char oc '\n')

let () =
  let ctx = Ldlp_report.Registry.context ~domains ~params ~seed () in
  List.iter
    (fun (f : Ldlp_report.Registry.t) -> write f.name (f.render ctx))
    Ldlp_report.Registry.all;
  write "stats" (Ldlp_report.Report.observability ~domains ~params ~seed ());
  write "soak"
    (Ldlp_soak.Soak.render
       (Ldlp_soak.Soak.run_all ~domains
          (Ldlp_soak.Soak.scenarios ~seed ~count:6)));
  (let module Mesh = Ldlp_mesh.Mesh in
   (* Small enough to run in milliseconds, large enough that relays span
      several hops and the chaos plan actually drops/reorders frames. *)
   let cfg = Mesh.config ~hosts:12 ~degree:3 ~seed ~broadcasts:6 () in
   let pristine = Mesh.compare_spread ~domains cfg in
   let chaos =
     Mesh.compare_spread ~domains { cfg with Mesh.plan = Mesh.chaos_plan }
   in
   (* The storm rows go through the sharded engine at shards = 1: the
      figure is the regression pin that the sharded path reproduces the
      pre-sharding storm byte for byte. *)
   let storms =
     List.map
       (fun wiring ->
         (Mesh.run_storm_sharded ~wiring ~shards:1 cfg).Mesh.ss_storm)
       Mesh.all_wirings
   in
   write "mesh" (Mesh.render cfg ~pristine ~chaos ~storms));
  (* Fault plans: the one-line describe forms are part of every
     golden-snapshotted table, so pin them directly over a spread of
     link plans, host lifecycles and a seeded lifecycle draw. *)
  (let module Plan = Ldlp_fault.Plan in
   let link_plans =
     [
       ("none", Plan.none);
       ("drop only", Plan.v ~drop:0.05 ());
       ( "chaos",
         Plan.v ~drop:0.05 ~dup:0.02 ~corrupt:0.01 ~reorder:0.1
           ~reorder_window:4 ~jitter:1e-4 () );
       ("down episode", Plan.v ~down:[ (0.01, 0.02); (0.05, 0.055) ] ());
     ]
   in
   let hosts =
     [
       ("immortal", Plan.host_none);
       ("one crash", Plan.host_v ~crash:[ (0.1, 0.15) ] ());
       ("flapping", Plan.host_v ~crash:[ (0.01, 0.02); (0.03, 0.05) ] ());
     ]
   in
   let b = Buffer.create 512 in
   Buffer.add_string b "Fault plans — describe forms\n";
   List.iter
     (fun (tag, p) ->
       Buffer.add_string b (Printf.sprintf "  link %-13s %s\n" tag (Plan.describe p)))
     link_plans;
   List.iter
     (fun (tag, h) ->
       Buffer.add_string b
         (Printf.sprintf "  host %-13s %s\n" tag (Plan.describe_host h)))
     hosts;
   let lc =
     Plan.lifecycle ~victims:0.5 ~episodes:2 ~min_outage:0.002
       ~mean_outage:0.01 ~flap:0.25 ~seed ~hosts:16 ~horizon:0.02 ()
   in
   Buffer.add_string b
     (Printf.sprintf "  lifecycle (seed %d, 16 hosts): %s\n" seed
        (Plan.describe_lifecycle lc));
   Array.iteri
     (fun i h ->
       if not (Plan.host_is_none h) then
         Buffer.add_string b
           (Printf.sprintf "    host %2d: %s\n" i (Plan.describe_host h)))
     lc;
   write "plans" (String.trim (Buffer.contents b)));
  (* Crash/restart recovery: the storm-under-crashes figure. *)
  (let module Mesh = Ldlp_mesh.Mesh in
   let lifecycle =
     Ldlp_fault.Plan.lifecycle ~victims:1.0 ~episodes:2 ~min_outage:0.002
       ~mean_outage:0.01 ~seed:7 ~hosts:16 ~horizon:0.02 ()
   in
   let cfg = Mesh.config ~hosts:16 ~degree:3 ~seed ~lifecycle () in
   let storms = Mesh.compare_storm ~domains ~calls_per_pair:6 cfg in
   write "recovery" (String.trim (Mesh.render_recovery cfg ~storms)));
  (* Flow-table locality: the Jain-style scheme comparison at the two
     quick-fidelity points (the 1M-flow point lives in `ldlp_repro flows`). *)
  (let module Study = Ldlp_flowtable.Study in
   let config = Study.quick in
   let rows =
     List.concat_map
       (fun flows -> Study.run ~config ~flows ~seed ())
       [ 10_000; 100_000 ]
   in
   write "flows" (String.trim (Study.render ~config ~rows ~seed ())));
  (* The sharded call storm at 1, 2 and 4 shards: it runs on that many
     domains whatever [domains] says, and its figure is the same on any
     host. *)
  write "shards" (String.trim (Ldlp_report.Shards.run ~seed).text)
