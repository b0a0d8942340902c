(* The repo benchmark.  See README.md in this directory.

     ldlp_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
     ldlp_bench --all [--check BENCHMARK.json] [options]
     ldlp_bench --runs K (--workload W | --all) [options]

   One workload runs in this process and prints each metric with its unit
   and sample count, then one JSON result line; it exits non-zero if a
   correctness check fails.  --all and --runs start one process per
   workload run.  The BENCHMARK.json command is run with --workload,
   --seed, --seconds (its run_seconds) and --trace. *)

open Ldlp_bench_suite

let workloads =
  [
    ("sig-open", Wl_sig.run);
    ("tcp-rr", Wl_tcp.run);
    ("fig6-sweep", Wl_fig6.run);
    ("mesh-storm", Wl_mesh.run);
  ]

let workload = ref ""

let seed = ref 1996

let seconds = ref 25.

let trace = ref 0

let quick = ref false

let all = ref false

let runs = ref 0

let check_file = ref ""

let spec =
  [
    ("--workload", Arg.Set_string workload, "W  run one workload");
    ("--seed", Arg.Set_int seed, "N  input seed (default 1996)");
    ("--seconds", Arg.Set_float seconds, "S  measurement budget (default 25)");
    ("--trace", Arg.Set_int trace, "0|1  1 = the traced run, per-layer metrics");
    ("--quick", Arg.Set quick, " smoke mode: tiny inputs, a fraction of a second");
    ("--all", Arg.Set all, " every workload, each in its own process");
    ("--runs", Arg.Set_int runs, "K  K runs per workload (seeds N..N+K-1); quartiles");
    ("--check", Arg.Set_string check_file, "FILE  with --all: check against BENCHMARK.json");
  ]

let usage = "ldlp_bench (--workload W | --all) [options]"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ldlp_bench: " ^ s); exit 2) fmt

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let run_one w =
  let run = match List.assoc_opt w workloads with Some r -> r | None -> fail "unknown workload %S" w in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let mode =
    {
      Spec.seed = !seed;
      seconds = (if !quick then 0.05 else !seconds);
      quick = !quick;
      trace = !trace = 1;
    }
  in
  Spec.verbose := not !quick;
  let out = Spec.create () in
  let tr =
    try run mode out
    with e -> fail "%s failed: %s" w (Printexc.to_string e)
  in
  Option.iter
    (fun tr ->
      ensure_dir "_bench";
      Tracer.write_chrome tr (Printf.sprintf "_bench/trace-%s.json" w))
    tr;
  let metrics, json = Spec.result out ~trace:mode.Spec.trace in
  List.iter
    (fun ((m : Spec.metric), v, samples) ->
      Printf.printf "%-32s %18.6f %-6s %d samples%s\n" m.name v m.unit_ samples
        (if m.on = [] then ""
         else
           Printf.sprintf "  (should move %s on %s)"
             (if m.moves = [] then "nothing" else String.concat ", " m.moves)
             (String.concat ", " m.on)))
    metrics;
  print_endline (Json.to_string json);
  exit (if out.Spec.ok && out.Spec.failed = 0 then 0 else 1)

(* Run one workload in a child process; its stdout lines and whether it
   exited 0. *)
let child w ~seed ~trace =
  let args =
    [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" !seconds; "--trace"; string_of_int trace ]
    @ if !quick then [ "--quick" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = read [] in
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (lines, ok)

let last_json lines =
  match List.rev lines with
  | l :: _ -> ( try Some (Json.parse l) with Json.Error _ -> None)
  | [] -> None

let selected () = if !all then List.map fst workloads else [ !workload ]

(* The smoke check: every workload, untraced and traced, prints every
   metric BENCHMARK.json names, with its unit, and passes its checks; and
   every declared per-layer metric is mapped to declared end-to-end metrics
   and workloads. *)
let check_against file =
  let bench = Json.parse (In_channel.with_open_bin file In_channel.input_all) in
  let names key =
    List.map
      (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
      (Json.to_list (Json.member key bench))
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let declared = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" bench)) in
  if declared <> List.map fst workloads then problem "BENCHMARK.json workloads differ from the benchmark's";
  let e2e = List.map fst (names "end_to_end") in
  List.iter
    (fun (name, _) ->
      match List.find_opt (fun (m : Spec.metric) -> m.name = name) Spec.per_layer with
      | None -> problem "per-layer %s has no entry in the layer map" name
      | Some m ->
        if m.on = [] then problem "per-layer %s names no workload" name;
        List.iter (fun w -> if not (List.mem w declared) then problem "%s: unknown workload %s" name w) m.on;
        List.iter (fun x -> if not (List.mem x e2e) then problem "%s: unknown end-to-end metric %s" name x) m.moves)
    (names "per_layer");
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let lines, ok = child w ~seed:!seed ~trace in
          if not ok then problem "%s --trace %d exited non-zero" w trace;
          match last_json lines with
          | None -> problem "%s --trace %d printed no JSON result" w trace
          | Some r ->
            if Json.member "correct" r <> Json.Bool true then problem "%s --trace %d: not correct" w trace;
            if Json.member "failed" r <> Json.Num 0. then problem "%s --trace %d: failed operations" w trace;
            let metrics = Json.member "metrics" r in
            let printed = match metrics with Json.Obj l -> List.map fst l | _ -> [] in
            let wanted = names key in
            if List.length printed <> List.length wanted then
              problem "%s --trace %d: %d metrics printed, %d declared" w trace (List.length printed)
                (List.length wanted);
            List.iter
              (fun (name, unit_) ->
                match Json.member name metrics with
                | Json.Obj _ as m ->
                  if Json.member "unit" m <> Json.Str unit_ then
                    problem "%s --trace %d: %s not in %s" w trace name unit_;
                  (match Json.member "value" m with
                  | Json.Num _ -> ()
                  | _ -> problem "%s --trace %d: %s has no value" w trace name)
                | _ -> problem "%s --trace %d: %s not printed" w trace name)
              wanted)
        [ (0, "end_to_end"); (1, "per_layer") ])
    (List.map fst workloads);
  match List.rev !problems with
  | [] -> print_endline "ldlp_bench: every workload printed every declared metric and passed its checks"
  | ps ->
    List.iter (fun p -> prerr_endline ("ldlp_bench: " ^ p)) ps;
    exit 1

(* K runs per workload with consecutive seeds: one JSON file per run, then
   each metric's median, quartiles and spread (IQR / median). *)
let multi_run k =
  ensure_dir "_bench";
  ensure_dir "_bench/runs";
  let failed = ref false in
  List.iter
    (fun w ->
      let values = Hashtbl.create 16 and order = ref [] in
      for i = 0 to k - 1 do
        let seed = !seed + i in
        let lines, ok = child w ~seed ~trace:!trace in
        if not ok then failed := true;
        match last_json lines with
        | None -> failed := true
        | Some r ->
          Out_channel.with_open_bin
            (Printf.sprintf "_bench/runs/%s-trace%d-seed%d.json" w !trace seed)
            (fun oc -> output_string oc (Json.to_string r ^ "\n"));
          (match Json.member "metrics" r with
          | Json.Obj l ->
            List.iter
              (fun (name, m) ->
                if not (Hashtbl.mem values name) then order := name :: !order;
                Hashtbl.add values name (Json.to_num (Json.member "value" m)))
              l
          | _ -> ())
      done;
      Printf.printf "%s: %d runs, seeds %d..%d\n" w k !seed (!seed + k - 1);
      Printf.printf "  %-32s %14s %14s %14s %8s\n" "metric" "q1" "median" "q3" "spread";
      List.iter
        (fun name ->
          let v = Array.of_list (Hashtbl.find_all values name) in
          if Array.length v >= 2 then begin
            let q1, med, q3 = Lat.quartiles v in
            Printf.printf "  %-32s %14.6g %14.6g %14.6g %8.4f\n" name q1 med q3
              (Spec.ratio (q3 -. q1) (Float.abs med))
          end)
        (List.rev !order))
    (selected ());
  if !failed then exit 1

let () =
  Arg.parse spec (fun a -> fail "unexpected argument %S" a) usage;
  if !runs > 0 then multi_run !runs
  else if !all && !check_file <> "" then check_against !check_file
  else if !all then begin
    let failed =
      List.filter
        (fun w ->
          let lines, ok = child w ~seed:!seed ~trace:!trace in
          Printf.printf "== %s\n" w;
          List.iter print_endline lines;
          not ok)
        (List.map fst workloads)
    in
    if failed <> [] then exit 1
  end
  else if !workload <> "" then run_one !workload
  else (Arg.usage spec usage; exit 2)
