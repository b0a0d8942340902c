(* Tests for the report renderers: every table/figure printer must embed
   the paper-comparison anchors and render without raising on real
   generator output.  Also the documents committed at the project root:
   the BENCH files parse and reprint, and the docs name only paths that
   exist. *)

let check = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let tiny =
  { Ldlp_model.Params.quick with Ldlp_model.Params.runs = 1; seconds = 0.05 }

let test_table1_render () =
  let s = Ldlp_report.Report.table1 (Ldlp_model.Figures.table1 ()) in
  check "title" true (contains s "Table 1");
  check "paper column" true (contains s "(paper)");
  check "exact total" true (contains s "30304");
  check "category row" true (contains s "Socket low")

let test_table3_render () =
  let s = Ldlp_report.Report.table3 (Ldlp_model.Figures.table3 ()) in
  check "title" true (contains s "Table 3");
  check "paper value" true (contains s "-41%");
  check "na marker" true (contains s "N/A")

let test_figure1_render () =
  let phases, funcs = Ldlp_model.Figures.figure1 () in
  let s = Ldlp_report.Report.figure1 phases funcs in
  check "phases" true (contains s "pkt intr");
  check "functions" true (contains s "tcp_input")

let test_fig8_render () =
  let s = Ldlp_report.Report.fig8 (Ldlp_model.Figures.fig8 ()) in
  check "crossover line" true (contains s "cold crossover");
  check "paper anchors" true (contains s "426 vs 176")

let test_fig56_render () =
  let points =
    Ldlp_model.Figures.rate_sweep ~params:tiny ~seed:3 ~rates:[ 2000.0; 8000.0 ] ()
  in
  let f5 = Ldlp_report.Report.fig5 points in
  let f6 = Ldlp_report.Report.fig6 points in
  check "fig5 title" true (contains f5 "Figure 5");
  check "fig5 chart legend" true (contains f5 "[C]=Conv-I");
  check "fig6 title" true (contains f6 "Figure 6");
  check "fig6 latency units" true (contains f6 "s")

let test_fig7_render () =
  let points =
    Ldlp_model.Figures.clock_sweep ~params:tiny ~seed:3 ~clocks_mhz:[ 30.0 ] ()
  in
  let s = Ldlp_report.Report.fig7 points in
  check "fig7 title" true (contains s "Figure 7");
  check "clock column" true (contains s "30")

let test_blocking_render () =
  let stack =
    {
      Ldlp_core.Blocking.layer_code_bytes = [ 6144; 6144; 6144; 6144; 6144 ];
      layer_data_bytes = [ 256; 256; 256; 256; 256 ];
      msg_bytes = 552;
      cycles_per_msg = 5 * 1652;
    }
  in
  let s =
    Ldlp_report.Report.blocking
      (Ldlp_core.Blocking.recommend Ldlp_core.Blocking.paper_machine stack)
  in
  check "classifies" true (contains s "small-message");
  check "batch" true (contains s "batch: 14")

let test_ablation_renders () =
  let batch =
    Ldlp_report.Report.ablation_batch
      (Ldlp_model.Figures.ablation_batch ~params:tiny ~seed:3 ())
  in
  check "batch policies listed" true (contains batch "dcache-fit");
  let dilution =
    Ldlp_report.Report.ablation_dilution (Ldlp_model.Figures.ablation_dilution ())
  in
  check "dilution paper anchor" true (contains dilution "~25%");
  let tx =
    Ldlp_report.Report.extension_txside
      (Ldlp_model.Figures.extension_txside ~params:tiny ~seed:3 ())
  in
  check "txside title" true (contains tx "transmit-side")

(* ---------- BENCH documents ---------- *)

module Json = Ldlp_report.Json
module Schema = Ldlp_report.Schema

let reject schema what text =
  match Schema.parse schema text with
  | Ok _ -> Alcotest.failf "%s unexpectedly accepted" what
  | Error _ -> ()

let sweep_row name points seq par domains =
  let speedup = if par > 0.0 then seq /. par else 0.0 in
  Schema.[ S name; I points; F seq; F par; I domains; F speedup ]

let test_bench_json_roundtrip () =
  let text =
    Schema.render Schema.sweeps
      Schema.
        [
          I 8; I 4;
          Rows
            [
              sweep_row "rate_sweep" 3 1.25 0.5 4;
              sweep_row "clock \"odd\" name\n" 0 0.0 0.0 1;
            ];
        ]
  in
  match Schema.parse Schema.sweeps text with
  | Error e -> Alcotest.failf "render output failed its own schema: %s" e
  | Ok doc ->
    Alcotest.(check int) "host_cores" 8 (Json.int doc "host_cores");
    (match Json.arr doc "sweeps" with
    | [ rate; odd ] ->
      Alcotest.(check (float 0.0)) "seq_seconds" 1.25 (Json.num rate "seq_seconds");
      Alcotest.(check (float 0.0)) "speedup" 2.5 (Json.num rate "speedup");
      Alcotest.(check string) "escaped name" "clock \"odd\" name\n" (Json.str odd "name")
    | _ -> Alcotest.fail "sweep count");
    Alcotest.(check string) "reprints byte-identically" text (Json.to_string doc)

let test_bench_json_rejects () =
  let reject = reject Schema.sweeps in
  reject "garbage" "not json";
  reject "wrong schema"
    "{\"schema\": \"other/9\", \"host_cores\": 1, \"default_domains\": 1, \
     \"sweeps\": []}";
  reject "missing sweeps"
    "{\"schema\": \"ldlp-bench-sweeps/1\", \"host_cores\": 1, \
     \"default_domains\": 1}";
  reject "inconsistent speedup"
    "{\"schema\": \"ldlp-bench-sweeps/1\", \"host_cores\": 1, \
     \"default_domains\": 1, \"sweeps\": [{\"name\": \"x\", \"points\": 1, \
     \"seq_seconds\": 2.0, \"par_seconds\": 1.0, \"domains\": 2, \
     \"speedup\": 9.0}]}";
  (* A hand-written but valid document must parse: the reader accepts any
     JSON layout, not just the printer's. *)
  match
    Schema.parse Schema.sweeps
      "{\"schema\":\"ldlp-bench-sweeps/1\",\"host_cores\":2,\"default_domains\":2,\"sweeps\":[]}"
  with
  | Ok doc -> Alcotest.(check int) "compact layout" 2 (Json.int doc "host_cores")
  | Error e -> Alcotest.failf "compact layout rejected: %s" e

(* The project root is the current directory when the suite runs from
   the checkout, and its parent under `dune runtest`, which runs in the
   build tree's test/ with the root files its rule depends on. *)
let root =
  if Sys.file_exists "dune-project" then Filename.current_dir_name
  else Filename.parent_dir_name

let read_committed file =
  In_channel.with_open_bin (Filename.concat root file) In_channel.input_all

(* Every committed BENCH file must pass its schema and print back byte for
   byte: numbers keep their literal text, and integers read back exactly
   (the flows digests need all 63 bits). *)
let test_committed_bench_files () =
  let read = read_committed in
  List.iter
    (fun (file, schema) ->
      let text = read file in
      match Schema.parse schema text with
      | Error e -> Alcotest.failf "%s: %s" file e
      | Ok doc ->
        Alcotest.(check string) (file ^ " reprints") text (Json.to_string doc))
    [
      ("BENCH_sweeps.json", Schema.sweeps);
      ("BENCH_hotpath.json", Schema.hotpath);
      ("BENCH_soak.json", Schema.soak);
      ("BENCH_mesh.json", Schema.mesh);
      ("BENCH_shards.json", Schema.shards);
      ("BENCH_recovery.json", Schema.recovery);
      ("BENCH_flows.json", Schema.flows);
    ];
  List.iter
    (fun row ->
      Alcotest.(check bool)
        "digest read back exactly" true
        (Json.member row "digest" = Json.Num (string_of_int (Json.int row "digest"))))
    (Json.arr (Result.get_ok (Schema.parse Schema.flows (read "BENCH_flows.json"))) "rows")

(* A committed dune file as one line: comments dropped, and every run
   of spaces and line breaks one space. *)
let dune_text file =
  String.split_on_char '\n' (read_committed file)
  |> List.map (fun l ->
         match String.index_opt l ';' with Some i -> String.sub l 0 i | None -> l)
  |> String.concat " " |> String.split_on_char ' '
  |> List.filter (( <> ) "")
  |> String.concat " "

(* The workspace builds in the release profile, which compiles without
   -opaque so that calls between modules can be direct and inlined; and
   since release's own flags are only `-w -40`, the root dune's [env]
   branch for every profile ([_]) must restate the dev profile's warning
   set, each warning an error. *)
let test_build_settings () =
  check "dune-workspace selects the release profile" true
    (contains (dune_text "dune-workspace") "(profile release)");
  check "root dune makes the dev warnings errors in every profile" true
    (contains (dune_text "dune")
       "(env (_ (flags (:standard -w @1..3@5..28@30..39@43@46..47@49..57@61..62-40 ")

(* A full stop ending a sentence is not part of the name before it. *)
let rec trim p =
  if String.ends_with ~suffix:"." p then trim (String.sub p 0 (String.length p - 1))
  else p

(* The lib/ and examples/*.ml paths a text names.  A path starts at "lib/"
   or "examples/" with no path character before it and runs to the first
   character that cannot be in one. *)
let named_paths text =
  let path_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | '/' -> true
    | _ -> false
  in
  let n = String.length text in
  let at i prefix =
    i + String.length prefix <= n
    && String.sub text i (String.length prefix) = prefix
  in
  let rec stop j = if j < n && path_char text.[j] then stop (j + 1) else j in
  let rec go i acc =
    if i >= n then List.rev acc
    else if (i = 0 || not (path_char text.[i - 1])) && (at i "lib/" || at i "examples/")
    then
      let j = stop i in
      let p = trim (String.sub text i (j - i)) in
      go j
        (if String.starts_with ~prefix:"lib/" p || String.ends_with ~suffix:".ml" p
         then p :: acc
         else acc)
    else go (i + 1) acc
  in
  go 0 []

let missing_paths text =
  List.filter
    (fun p -> not (Sys.file_exists (Filename.concat root p)))
    (named_paths text)

(* The targets a text runs with make: the word after each "make " that
   does not end a longer word.  Placeholders such as [make <name>] and
   [make bench-<name>] name no target. *)
let named_targets text =
  let word_char = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
    | _ -> false
  in
  let target_char c = word_char c || String.contains ".%<>" c in
  let n = String.length text in
  let rec stop j = if j < n && target_char text.[j] then stop (j + 1) else j in
  let rec go i acc =
    if i + 5 > n then List.rev acc
    else if String.sub text i 5 = "make " && (i = 0 || not (word_char text.[i - 1]))
    then
      let j = stop (i + 5) in
      let t = trim (String.sub text (i + 5) (j - i - 5)) in
      go j (if t = "" || String.contains t '<' then acc else t :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* The targets a Makefile defines: the words before the colon of each
   rule, a [$(NAME)] word standing for the words NAME is defined as. *)
let makefile_targets makefile =
  let words s = List.filter (( <> ) "") (String.split_on_char ' ' s) in
  let lines =
    List.filter
      (fun l -> l <> "" && l.[0] <> '\t' && l.[0] <> '#')
      (String.split_on_char '\n' makefile)
  in
  let rule l =
    match String.index_opt l ':' with
    | Some i
      when (i + 1 = String.length l || l.[i + 1] <> '=')
           && not (String.contains (String.sub l 0 i) '=') ->
      Some (words (String.sub l 0 i))
    | _ -> None
  in
  (* [NAME = words], and [?=], [:=] and [+=] alike. *)
  let definition l =
    match String.index_opt l '=' with
    | Some i when Option.is_none (rule l) ->
      let name = String.trim (String.sub l 0 i) in
      let k = String.length name - 1 in
      let name = if k >= 0 && String.contains "?:+" name.[k] then String.sub name 0 k else name in
      Some (String.trim name, words (String.sub l (i + 1) (String.length l - i - 1)))
    | _ -> None
  in
  let defs = List.filter_map definition lines in
  let expand w =
    let n = String.length w in
    if n > 3 && String.starts_with ~prefix:"$(" w && w.[n - 1] = ')' then
      Option.value ~default:[ w ] (List.assoc_opt (String.sub w 2 (n - 3)) defs)
    else [ w ]
  in
  List.concat_map (fun l -> List.concat_map expand (Option.value ~default:[] (rule l))) lines

(* A target with a [%] is a pattern rule: it matches any name with a
   non-empty stem in the [%]'s place. *)
let target_matches target name =
  match String.index_opt target '%' with
  | None -> target = name
  | Some i ->
    let prefix = String.sub target 0 i
    and suffix = String.sub target (i + 1) (String.length target - i - 1) in
    String.length name > String.length prefix + String.length suffix
    && String.starts_with ~prefix name
    && String.ends_with ~suffix name

let missing_targets ~makefile text =
  let targets = makefile_targets makefile in
  List.filter
    (fun name -> not (List.exists (fun t -> target_matches t name) targets))
    (named_targets text)

(* Each run of whitespace as one space, so that a line break inside a
   quoted title does not matter. *)
let squash s =
  String.split_on_char ' ' (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")
  |> String.concat " "

(* The ROADMAP item titles a text cites, in the three forms the docs use:
   ROADMAP.md ("title"), ROADMAP, "title" and ROADMAP "title". *)
let cited_titles text =
  let text = squash text in
  let n = String.length text in
  let forms = [ "ROADMAP.md (\""; "ROADMAP, \""; "ROADMAP \"" ] in
  let at i f = i + String.length f <= n && String.sub text i (String.length f) = f in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match List.find_opt (at i) forms with
      | None -> go (i + 1) acc
      | Some f -> (
        let start = i + String.length f in
        match String.index_from_opt text start '"' with
        | Some stop -> go (stop + 1) (String.sub text start (stop - start) :: acc)
        | None -> List.rev acc)
  in
  go 0 []

let missing_titles ~roadmap text =
  let roadmap = squash roadmap in
  List.filter (fun t -> not (contains roadmap t)) (cited_titles text)

(* The LDLP_ variables a text names: "LDLP_" and at least one more name
   character, not inside a longer word. *)
let named_vars text =
  let var_char = function 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false in
  let word_char c = var_char c || (c >= 'a' && c <= 'z') in
  let n = String.length text in
  let rec stop j = if j < n && var_char text.[j] then stop (j + 1) else j in
  let rec go i acc =
    if i + 5 > n then List.rev acc
    else if String.sub text i 5 = "LDLP_" && (i = 0 || not (word_char text.[i - 1]))
    then
      let j = stop (i + 5) in
      go j (if j > i + 5 then String.sub text i (j - i) :: acc else acc)
    else go (i + 1) acc
  in
  go 0 []

(* The variables a source text reads: the string literal each
   [Sys.getenv_opt] is applied to. *)
let read_vars text =
  let key = "Sys.getenv_opt \"" in
  let k = String.length key and n = String.length text in
  let rec go i acc =
    if i + k > n then List.rev acc
    else if String.sub text i k = key then
      match String.index_from_opt text (i + k) '"' with
      | Some stop -> go (stop + 1) (String.sub text (i + k) (stop - i - k) :: acc)
      | None -> List.rev acc
    else go (i + 1) acc
  in
  go 0 []

(* Every .ml file under a directory of the checkout, build and hidden
   directories left out. *)
let rec ml_files dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if f.[0] = '.' || f.[0] = '_' then []
         else if Sys.is_directory (Filename.concat root p) then ml_files p
         else if Filename.check_suffix f ".ml" then [ p ]
         else [])

let unread_vars ~read text = List.filter (fun v -> not (List.mem v read)) (named_vars text)

(* ROADMAP and CHANGES are history, and name deleted code on purpose. *)
let test_docs_name_existing_paths () =
  Alcotest.(check (list string))
    "paths found" [ "lib/shard"; "lib/"; "examples/quickstart.ml" ]
    (named_paths
       "`lib/shard`. The only spawn in lib/, see examples/quickstart.ml; \
        not stdlib/x, mylib/y or examples/quickstart.exe.");
  Alcotest.(check (list string))
    "a deleted library is missing" [ "lib/shard" ]
    (missing_paths "The sharded storm ran in `lib/shard`, beside lib/mesh.");
  Alcotest.(check (list string))
    "targets found" [ "check"; "bench-hotpath"; "flows" ]
    (named_targets
       "`make check`, make bench-hotpath.  Not `make <name>` or `make \
        bench-<name>`; to remake a document, `make flows`.");
  let makefile = read_committed "Makefile" in
  Alcotest.(check (list string))
    "undefined targets are missing" [ "flowtable"; "bench-" ]
    (missing_targets ~makefile
       "`make flowtable`, `make flows`, `make bench-sweeps`, `make bench-`, \
        `make check`.");
  let roadmap = read_committed "ROADMAP.md" in
  Alcotest.(check (list string))
    "titles found" [ "A b"; "C, d"; "E" ]
    (cited_titles
       "See ROADMAP.md\n(\"A\n   b\"); (ROADMAP, \"C, d\"); ROADMAP \"E\"; not ROADMAPS \"F\".");
  Alcotest.(check (list string))
    "a made-up title is missing" [ "A roadmap item that does not exist" ]
    (missing_titles ~roadmap
       "ROADMAP, \"One persistent domain pool, and a sharded\n\
        wall-clock gate that resolves\"; ROADMAP \"A roadmap item that does not exist\".");
  Alcotest.(check (list string))
    "variables found" [ "LDLP_CHECK"; "LDLP_X1"; "LDLP_CHECK" ]
    (named_vars
       "LDLP_CHECK=1 make check; `LDLP_X1`, (LDLP_CHECK); not LDLP_, \
        NOT_LDLP_Y, xLDLP_Z or ldlp_w.");
  Alcotest.(check (list string))
    "variables read" [ "LDLP_A"; "HOME" ]
    (read_vars
       "let a = Sys.getenv_opt \"LDLP_A\" and h = Sys.getenv_opt \"HOME\" in \
        Sys.getenv_opt v");
  Alcotest.(check (list string))
    "a variable nothing reads is unread" [ "LDLP_UNREAD" ]
    (unread_vars ~read:[ "LDLP_CHECK" ] "LDLP_CHECK=1; LDLP_UNREAD=1");
  let read =
    List.concat_map
      (fun p -> read_vars (read_committed p))
      (List.concat_map ml_files [ "lib"; "bin"; "bench" ])
  in
  Alcotest.(check bool) "the code reads some variable" true (read <> []);
  Alcotest.(check (list string))
    "README names every variable the code reads" []
    (List.filter
       (fun v -> not (List.mem v (named_vars (read_committed "README.md"))))
       read);
  List.iter
    (fun doc ->
      let text = read_committed doc in
      Alcotest.(check (list string))
        (doc ^ " names only variables the code reads") []
        (unread_vars ~read text))
    [
      "README.md"; "DESIGN.md"; "EXPERIMENTS.md"; ".claude/skills/verify/SKILL.md";
      "Makefile"; ".github/workflows/ci.yml";
    ];
  List.iter
    (fun doc ->
      let text = read_committed doc in
      Alcotest.(check (list string))
        (doc ^ " names only existing paths") [] (missing_paths text);
      Alcotest.(check (list string))
        (doc ^ " names only defined make targets") []
        (missing_targets ~makefile text);
      Alcotest.(check (list string))
        (doc ^ " cites only existing ROADMAP titles") []
        (missing_titles ~roadmap text))
    [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md"; ".claude/skills/verify/SKILL.md" ]

let soak_row ?(loss = 0.01) ?(goodput = 2345.5) ?(retransmits = 3)
    ?(completion = 0.25) () =
  Schema.[ F loss; F goodput; I retransmits; F completion; B true ]

let soak_doc rows = Schema.render Schema.soak Schema.[ I 1996; I 32; I 64; Rows rows ]

let test_soak_json_rejects () =
  (match Schema.parse Schema.soak (soak_doc [ soak_row (); soak_row ~loss:0.0 () ]) with
  | Ok doc -> Alcotest.(check int) "rungs" 2 (List.length (Json.arr doc "ladder"))
  | Error e -> Alcotest.failf "valid ladder rejected: %s" e);
  let reject_row what row =
    reject Schema.soak what (soak_doc [ soak_row (); row ])
  in
  reject_row "loss of one" (soak_row ~loss:1.0 ());
  reject_row "negative loss" (soak_row ~loss:(-0.01) ());
  reject_row "negative goodput" (soak_row ~goodput:(-1.0) ());
  reject_row "negative retransmits" (soak_row ~retransmits:(-1) ());
  reject_row "negative completion" (soak_row ~completion:(-0.5) ());
  reject Schema.soak "non-integer retransmits"
    "{\"schema\": \"ldlp-bench-soak/1\", \"seed\": 1, \"chunks\": 32, \
     \"chunk_bytes\": 64, \"ladder\": [{\"loss\": 0.0, \
     \"goodput_bytes_per_s\": 1.0, \"retransmits\": 2.5, \"completion_s\": \
     0.1, \"ok\": true}]}"

let flow_row ?(discipline = "ldlp") ?(lookups = 65536) ?(misses = 19078)
    ?misses_per_lookup () =
  let mpl =
    match misses_per_lookup with
    | Some m -> m
    | None -> float_of_int misses /. float_of_int lookups
  in
  Schema.
    [
      I 10_000; S "direct"; S discipline; I lookups; I misses; F mpl; I 18822;
      I (-3119138207619443039); B true;
    ]

let flows_doc rows = Schema.render Schema.flows Schema.[ I 1996; I 256; I 1024; Rows rows ]

let test_flows_json_roundtrip () =
  let text = flows_doc [ flow_row ~discipline:"conv" (); flow_row () ] in
  match Schema.parse Schema.flows text with
  | Error e -> Alcotest.failf "render output failed its own schema: %s" e
  | Ok doc ->
    Alcotest.(check int) "slots" 256 (Json.int doc "slots");
    List.iter
      (fun row ->
        Alcotest.(check int)
          "63-bit digest survives" (-3119138207619443039) (Json.int row "digest"))
      (Json.arr doc "rows");
    Alcotest.(check string) "reprints byte-identically" text (Json.to_string doc)

let test_flows_json_rejects () =
  let reject_row what row =
    reject Schema.flows what (flows_doc [ flow_row (); row ])
  in
  reject_row "misses above lookups" (flow_row ~lookups:100 ~misses:101 ());
  reject_row "negative misses" (flow_row ~misses:(-1) ());
  reject_row "misses_per_lookup off its ratio" (flow_row ~misses_per_lookup:0.9 ());
  reject_row "unknown discipline" (flow_row ~discipline:"batch" ());
  reject_row "no lookups" (flow_row ~lookups:0 ~misses:0 ~misses_per_lookup:0.0 ());
  reject Schema.flows "bad header"
    (Schema.render Schema.flows Schema.[ I 1996; I 0; I 1024; Rows [ flow_row () ] ])

let shard_row ?cpu_pairs_per_s n wall cpu_s_max =
  let cpu_rate =
    Option.value cpu_pairs_per_s ~default:(128.0 /. cpu_s_max)
  in
  Schema.
    [
      I n; I 27; I 128; F wall; F (128.0 /. wall); F cpu_s_max; F cpu_rate;
      B true;
    ]

let shards_doc ?(hosts = 256) rows =
  Schema.render Schema.shards Schema.[ I 1996; I hosts; I 4; I 32; I 8; Rows rows ]

let test_shards_json_roundtrip () =
  let json = shards_doc [ shard_row 1 0.036 0.158; shard_row 4 0.012 0.0531 ] in
  match Schema.parse Schema.shards json with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok doc ->
    Alcotest.(check int) "seed" 1996 (Json.int doc "seed");
    Alcotest.(check int) "hosts" 256 (Json.int doc "hosts");
    Alcotest.(check int) "pairs" 32 (Json.int doc "pairs");
    Alcotest.(check int) "host cores" 8 (Json.int doc "host_cores");
    let rows = Json.arr doc "rows" in
    Alcotest.(check int) "rows survive" 2 (List.length rows);
    List.iter2
      (fun row shards ->
        Alcotest.(check int) "shards" shards (Json.int row "shards");
        Alcotest.(check int) "completed" 128 (Json.int row "completed");
        check "ok flag" true (Json.bool row "ok"))
      rows [ 1; 4 ];
    Alcotest.(check string) "reprints byte-identically" json (Json.to_string doc)

let test_shards_json_rejects_bad () =
  let reject = reject Schema.shards in
  reject "empty doc" "{}";
  reject "wrong schema tag"
    {|{"schema": "ldlp-bench-mesh/1", "seed": 1, "hosts": 4,
       "degree": 2, "pairs": 1, "host_cores": 1, "rows": []}|};
  (* A cpu rate inconsistent with completed/cpu_s_max is a forged row. *)
  reject "inconsistent cpu rate"
    (shards_doc [ shard_row ~cpu_pairs_per_s:99_999.0 1 0.036 0.158 ]);
  reject "zero shards" (shards_doc [ shard_row 0 0.036 0.158 ]);
  reject "single-host header" (shards_doc ~hosts:1 [ shard_row 1 0.036 0.158 ])

(* ---------- Observability: stats text + JSON documents ---------- *)

let tiny_sheets () =
  Ldlp_report.Report.observability_sheets ~domains:1 ~params:tiny ~seed:5
    ~rate:7000.0 ()

let test_observability_render () =
  let s =
    Ldlp_report.Report.observability ~domains:1 ~params:tiny ~seed:5
      ~rate:7000.0 ()
  in
  check "header" true (contains s "Observability");
  check "both disciplines" true
    (contains s "conventional @ 7000 msg/s" && contains s "ldlp @ 7000 msg/s");
  check "per-layer rows" true (contains s "L1");
  check "per-message rates" true (contains s "per-message");
  check "offered scalar" true (contains s "offered")

let test_observability_domain_independent () =
  (* The merged sheets must not depend on the worker count. *)
  let one =
    Ldlp_report.Report.observability ~domains:1 ~params:tiny ~seed:5 ()
  in
  let four =
    Ldlp_report.Report.observability ~domains:4 ~params:tiny ~seed:5 ()
  in
  check "domains=1 equals domains=4" true (one = four)

let test_stats_json_roundtrip () =
  let sheets = tiny_sheets () in
  let text = Schema.render Schema.stats (Ldlp_report.Report.stats_doc sheets) in
  match Schema.parse Schema.stats text with
  | Error e -> Alcotest.failf "stats document failed its schema: %s" e
  | Ok doc ->
    (* Two discipline sheets plus the fault-replay and flow-table
       scalar sheets. *)
    let docs = Json.arr doc "sheets" in
    Alcotest.(check int)
      "one sheet per discipline plus the fault and flow sheets" 4
      (List.length docs);
    List.iter2
      (fun m s ->
        Alcotest.(check string) "label" (Ldlp_obs.Metrics.label m) (Json.str s "label");
        Alcotest.(check int)
          "messages" (Ldlp_obs.Metrics.messages m) (Json.int s "messages");
        let t = Ldlp_obs.Metrics.totals m in
        Alcotest.(check int)
          "imisses survive the roundtrip" t.Ldlp_obs.Metrics.t_imisses
          (List.fold_left
             (fun acc l -> acc + Json.int l "imisses")
             0 (Json.arr s "layers")))
      sheets docs

let hot_row name messages wall rate imisses =
  Schema.
    [
      S name; I messages; F wall; F rate; F imisses; F 29.4; F 25.0; F 0.13;
      F 0.14; F 1.0;
    ]

let hotpath_doc rows =
  Schema.render Schema.hotpath Schema.[ F 9000.0; I 1996; F 3.5; Rows rows ]

let test_hotpath_json_roundtrip () =
  let text =
    hotpath_doc
      [
        hot_row "conventional" 8000 0.21 3500.0 960.0;
        hot_row "ldlp" 13000 0.11 8700.0 85.4;
      ]
  in
  match Schema.parse Schema.hotpath text with
  | Error e -> Alcotest.failf "hotpath document failed its schema: %s" e
  | Ok doc ->
    Alcotest.(check (float 1e-9)) "rate" 9000.0 (Json.num doc "rate");
    Alcotest.(check int) "seed" 1996 (Json.int doc "seed");
    Alcotest.(check (list string))
      "disciplines" [ "conventional"; "ldlp" ]
      (List.map (fun r -> Json.str r "name") (Json.arr doc "disciplines"));
    Alcotest.(check string) "reprints byte-identically" text (Json.to_string doc)

let test_hotpath_json_rejects () =
  let reject = reject Schema.hotpath in
  reject "garbage" "nope";
  reject "wrong schema"
    "{\"schema\": \"ldlp-stats/1\", \"rate\": 1.0, \"seed\": 1, \
     \"metrics_overhead_pct\": 0.0, \"disciplines\": []}";
  reject "negative messages"
    "{\"schema\": \"ldlp-bench-hotpath/1\", \"rate\": 1.0, \"seed\": 1, \
     \"metrics_overhead_pct\": 0.0, \"disciplines\": [{\"name\": \"x\", \
     \"messages\": -1, \"wall_seconds\": 0.1, \"messages_per_sec\": 1.0, \
     \"imisses_per_msg\": 1.0, \"dmisses_per_msg\": 1.0, \"allocs_per_msg\": \
     1.0, \"p50_latency_s\": 0.1, \"p99_latency_s\": 0.1, \"mean_batch\": \
     1.0}]}";
  reject "negative wall clock" (hotpath_doc [ hot_row "x" 1 (-0.1) 1.0 1.0 ])

(* An experiment entry at seed 1996 passes every gate and rebuilds its
   committed document byte for byte. *)
let test_experiment name () =
  let e =
    List.find (fun (e : Ldlp_report.Experiment.t) -> e.name = name)
      Ldlp_report.Experiment.all
  in
  let o = e.run ~seed:1996 () in
  Alcotest.(check (list string)) (name ^ " gates") [] o.failures;
  let file = "BENCH_" ^ name ^ ".json" in
  let schema, values = o.doc in
  Alcotest.(check string) file (read_committed file) (Schema.render schema values)

(* The sharded storm at seed 1996 passes its gates and gives every
   modeled field of the committed BENCH_shards.json, so a modeled change
   that does not re-commit the document fails here.  The host fields
   (host_cores and the wall columns) are not compared. *)
let test_shards_bench_file () =
  let module Shards = Ldlp_report.Shards in
  let s = Shards.run ~seed:1996 in
  Alcotest.(check (list string)) "shards gates" [] s.failures;
  let parse text = Result.get_ok (Schema.parse Schema.shards text) in
  let committed = parse (read_committed "BENCH_shards.json") in
  let ours =
    let schema, values =
      Shards.doc s ~host_cores:1 ~wall_s:(List.map (fun _ -> 0.0) s.rows)
    in
    parse (Schema.render schema values)
  in
  let same keys a b =
    List.iter
      (fun k ->
        Alcotest.(check string) k
          (Json.to_string (Json.member a k))
          (Json.to_string (Json.member b k)))
      keys
  in
  same [ "seed"; "hosts"; "degree"; "pairs" ] committed ours;
  let rows doc = Json.arr doc "rows" in
  Alcotest.(check int) "rows" (List.length (rows committed)) (List.length (rows ours));
  List.iter2
    (same [ "shards"; "components"; "completed"; "cpu_s_max"; "cpu_pairs_per_s"; "ok" ])
    (rows committed) (rows ours)

let suite =
  [
    Alcotest.test_case "table1 render" `Quick test_table1_render;
    Alcotest.test_case "table3 render" `Quick test_table3_render;
    Alcotest.test_case "figure1 render" `Quick test_figure1_render;
    Alcotest.test_case "fig8 render" `Quick test_fig8_render;
    Alcotest.test_case "fig5/6 render" `Slow test_fig56_render;
    Alcotest.test_case "fig7 render" `Slow test_fig7_render;
    Alcotest.test_case "blocking render" `Quick test_blocking_render;
    Alcotest.test_case "ablation renders" `Slow test_ablation_renders;
    Alcotest.test_case "bench json roundtrip" `Quick test_bench_json_roundtrip;
    Alcotest.test_case "bench json rejects bad input" `Quick test_bench_json_rejects;
    Alcotest.test_case "observability render" `Quick test_observability_render;
    Alcotest.test_case "observability domain-independent" `Slow
      test_observability_domain_independent;
    Alcotest.test_case "stats json roundtrip" `Quick test_stats_json_roundtrip;
    Alcotest.test_case "hotpath json roundtrip" `Quick
      test_hotpath_json_roundtrip;
    Alcotest.test_case "hotpath json rejects bad input" `Quick
      test_hotpath_json_rejects;
    Alcotest.test_case "committed BENCH files reprint exactly" `Quick
      test_committed_bench_files;
    Alcotest.test_case "docs name existing lib and example paths" `Quick
      test_docs_name_existing_paths;
    Alcotest.test_case "build pins release and the dev warnings" `Quick
      test_build_settings;
    Alcotest.test_case "soak json rejects bad input" `Quick test_soak_json_rejects;
    Alcotest.test_case "flows json roundtrip" `Quick test_flows_json_roundtrip;
    Alcotest.test_case "flows json rejects bad input" `Quick
      test_flows_json_rejects;
    Alcotest.test_case "BENCH_shards.json roundtrip" `Quick
      test_shards_json_roundtrip;
    Alcotest.test_case "BENCH_shards.json rejects bad docs" `Quick
      test_shards_json_rejects_bad;
    Alcotest.test_case "soak experiment matches BENCH file" `Quick
      (test_experiment "soak");
    Alcotest.test_case "recovery experiment matches BENCH file" `Quick
      (test_experiment "recovery");
    Alcotest.test_case "mesh experiment matches BENCH file" `Quick
      (test_experiment "mesh");
    Alcotest.test_case "flows experiment matches BENCH file" `Quick
      (test_experiment "flows");
    Alcotest.test_case "shards storm matches BENCH file" `Quick
      test_shards_bench_file;
  ]
