type kind =
  | Int
  | Fixed of int  (** Decimal places. *)
  | Text
  | Flag
  | Table of field list * rule list
  | Record of field list

and field = { key : string; kind : kind }

(* An invariant over one object: what it states, and the test. *)
and rule = string * (Json.t -> bool)

type t = { tag : string; fields : field list; rules : rule list }

type value =
  | I of int
  | F of float
  | S of string
  | B of bool
  | Rows of value list list
  | Rec of value list

let rec encode field value =
  match (field.kind, value) with
  | Int, I n -> Json.Num (string_of_int n)
  | Fixed decimals, F x -> Json.Num (Printf.sprintf "%.*f" decimals x)
  | Text, S s -> Json.Str s
  | Flag, B b -> Json.Bool b
  | Table (fields, _), Rows rows ->
    Json.Arr (List.map (fun row -> Json.Obj (members fields row)) rows)
  | Record fields, Rec values -> Json.Obj (members fields values)
  | _ -> invalid_arg ("Schema.render: wrong kind of value for " ^ field.key)

and members fields values =
  List.map2 (fun f v -> (f.key, encode f v)) fields values

let render t values =
  Json.to_string
    (Json.Obj (("schema", Json.Str t.tag) :: members t.fields values))

let rec check_object where fields rules o =
  try
    (match o with
    | Json.Obj _ -> ()
    | _ -> raise (Json.Error "not an object"));
    List.iter
      (fun f ->
        match f.kind with
        | Int -> ignore (Json.int o f.key)
        | Fixed _ -> ignore (Json.num o f.key)
        | Text -> ignore (Json.str o f.key)
        | Flag -> ignore (Json.bool o f.key)
        | Table (fields, rules) ->
          List.iteri
            (fun i row ->
              check_object (Printf.sprintf "%s row %d" f.key i) fields rules row)
            (Json.arr o f.key)
        | Record fields -> check_object f.key fields [] (Json.member o f.key))
      fields;
    List.iter
      (fun (what, holds) ->
        if not (holds o) then raise (Json.Error ("violates " ^ what)))
      rules
  with Json.Error msg -> raise (Json.Error (where ^ ": " ^ msg))

let parse t text =
  match Json.parse text with
  | Error e -> Error e
  | Ok doc -> (
    try
      let tag = Json.str doc "schema" in
      if tag <> t.tag then
        raise (Json.Error (Printf.sprintf "schema %S, expected %S" tag t.tag));
      check_object "header" t.fields t.rules doc;
      Ok doc
    with Json.Error msg -> Error msg)

(* ---------- Building blocks ---------- *)

let doc ?(rules = []) tag fields = { tag; fields; rules }

let int key = { key; kind = Int }

let fixed decimals key = { key; kind = Fixed decimals }

let text key = { key; kind = Text }

let flag key = { key; kind = Flag }

let rows ?(rules = []) key fields = { key; kind = Table (fields, rules) }

let at_least lo keys =
  ( Printf.sprintf "%s >= %g" (String.concat ", " keys) lo,
    fun o -> List.for_all (fun k -> Json.num o k >= lo) keys )

let sum_at_most keys limit =
  ( Printf.sprintf "%s <= %s" (String.concat " + " keys) limit,
    fun o ->
      List.fold_left (fun acc k -> acc + Json.int o k) 0 keys <= Json.int o limit
  )

let nonempty key = (key ^ " non-empty", fun o -> Json.str o key <> "")

(* ---------- The documents ---------- *)

let sweeps =
  let speedup_matches o =
    let par = Json.num o "par_seconds" in
    let expect = if par > 0.0 then Json.num o "seq_seconds" /. par else 0.0 in
    Float.abs (Json.num o "speedup" -. expect) <= 0.0005 +. 1e-9
  in
  doc "ldlp-bench-sweeps/1"
    [
      int "host_cores"; int "default_domains";
      rows "sweeps"
        ~rules:[ ("speedup = seq_seconds / par_seconds", speedup_matches) ]
        [
          text "name"; int "points"; fixed 6 "seq_seconds"; fixed 6 "par_seconds";
          int "domains"; fixed 3 "speedup";
        ];
    ]

let stats =
  let hist key =
    { key; kind = Record [ int "count"; fixed 6 "mean"; int "p50"; int "p99"; int "max" ] }
  in
  doc "ldlp-stats/1"
    [
      rows "sheets"
        [
          text "label"; int "messages"; int "batches";
          rows "layers"
            [
              text "name"; int "handled"; int "quanta"; int "exec_cycles";
              int "stall_cycles"; int "imisses"; int "dmisses"; int "wmisses";
              int "queue_peak";
            ];
          rows "scalars" [ text "name"; int "value" ];
          hist "batch"; hist "depth"; hist "latency_ns";
        ];
    ]

let hotpath =
  doc "ldlp-bench-hotpath/1"
    [
      fixed 1 "rate"; int "seed"; fixed 2 "metrics_overhead_pct";
      rows "disciplines"
        ~rules:[ at_least 0.0 [ "messages"; "wall_seconds"; "imisses_per_msg" ] ]
        [
          text "name"; int "messages"; fixed 6 "wall_seconds";
          fixed 3 "messages_per_sec"; fixed 6 "imisses_per_msg";
          fixed 6 "dmisses_per_msg"; fixed 3 "allocs_per_msg";
          fixed 9 "p50_latency_s"; fixed 9 "p99_latency_s"; fixed 3 "mean_batch";
        ];
    ]

let soak =
  doc "ldlp-bench-soak/1"
    [
      int "seed"; int "chunks"; int "chunk_bytes";
      rows "ladder"
        ~rules:
          [
            ("loss < 1", fun o -> Json.num o "loss" < 1.0);
            at_least 0.0 [ "loss"; "goodput_bytes_per_s"; "retransmits"; "completion_s" ];
          ]
        [
          fixed 4 "loss"; fixed 3 "goodput_bytes_per_s"; int "retransmits";
          fixed 6 "completion_s"; flag "ok";
        ];
    ]

let mesh =
  doc "ldlp-bench-mesh/1"
    [
      int "seed"; int "degree"; fixed 1 "goal_pairs_per_s";
      rows "spread"
        ~rules:
          [
            nonempty "wiring";
            at_least 2.0 [ "hosts" ];
            at_least 0.0
              [
                "delivered"; "p50_s"; "p90_s"; "p99_s"; "max_s"; "mean_s";
                "reloads"; "mean_batch"; "cpu_s";
              ];
          ]
        [
          int "hosts"; text "wiring"; int "delivered"; fixed 9 "p50_s";
          fixed 9 "p90_s"; fixed 9 "p99_s"; fixed 9 "max_s"; fixed 9 "mean_s";
          int "reloads"; fixed 3 "mean_batch"; fixed 9 "cpu_s"; flag "ok";
        ];
      rows "storm"
        ~rules:
          [
            nonempty "wiring";
            at_least 2.0 [ "hosts" ];
            at_least 1.0 [ "pairs" ];
            at_least 0.0
              [
                "calls"; "completed"; "wire_pairs_per_s"; "cpu_us_per_pair";
                "cpu_pairs_per_s";
              ];
            sum_at_most [ "completed" ] "calls";
          ]
        [
          int "hosts"; text "wiring"; int "pairs"; int "calls"; int "completed";
          fixed 3 "wire_pairs_per_s"; fixed 3 "cpu_us_per_pair";
          fixed 3 "cpu_pairs_per_s"; flag "ok";
        ];
    ]

let recovery =
  doc "ldlp-bench-recovery/1"
    [
      int "seed"; int "hosts"; int "degree";
      rows "rows"
        ~rules:
          [
            nonempty "wiring";
            at_least 0.0
              [
                "crash_episodes"; "calls"; "completed"; "abandoned"; "retried";
                "deferred"; "goodput_pairs_per_s"; "ttr_p50_s"; "ttr_p99_s";
              ];
            sum_at_most [ "completed"; "abandoned" ] "calls";
            at_least 1.0 [ "retry_amplification" ];
          ]
        [
          text "wiring"; int "crash_episodes"; int "calls"; int "completed";
          int "abandoned"; int "retried"; int "deferred";
          fixed 3 "goodput_pairs_per_s"; fixed 4 "retry_amplification";
          fixed 9 "ttr_p50_s"; fixed 9 "ttr_p99_s"; flag "ok";
        ];
    ]

let shards =
  let cpu_rate_matches o =
    let cpu = Json.num o "cpu_s_max" in
    cpu <= 0.0
    ||
    let expect = float_of_int (Json.int o "completed") /. cpu in
    Float.abs (Json.num o "cpu_pairs_per_s" -. expect) <= 0.5 +. (0.001 *. expect)
  in
  doc "ldlp-bench-shards/1"
    ~rules:[ at_least 2.0 [ "hosts" ]; at_least 1.0 [ "pairs"; "host_cores" ] ]
    [
      int "seed"; int "hosts"; int "degree"; int "pairs"; int "host_cores";
      rows "rows"
        ~rules:
          [
            at_least 1.0 [ "shards"; "components" ];
            at_least 0.0
              [ "completed"; "wall_s"; "wall_pairs_per_s"; "cpu_s_max"; "cpu_pairs_per_s" ];
            ("cpu_pairs_per_s = completed / cpu_s_max", cpu_rate_matches);
          ]
        [
          int "shards"; int "components"; int "completed"; fixed 6 "wall_s";
          fixed 3 "wall_pairs_per_s"; fixed 9 "cpu_s_max"; fixed 3 "cpu_pairs_per_s";
          flag "ok";
        ];
    ]

let flows =
  let rate_matches o =
    let expect =
      float_of_int (Json.int o "model_misses") /. float_of_int (Json.int o "lookups")
    in
    Float.abs (Json.num o "misses_per_lookup" -. expect) <= 1e-4
  in
  doc "ldlp-bench-flows/1"
    ~rules:[ at_least 1.0 [ "slots"; "batch" ] ]
    [
      int "seed"; int "slots"; int "batch";
      rows "rows"
        ~rules:
          [
            at_least 1.0 [ "flows"; "lookups" ];
            at_least 0.0 [ "model_misses" ];
            sum_at_most [ "model_misses" ] "lookups";
            ( "discipline in {conv, ldlp}",
              fun o -> List.mem (Json.str o "discipline") [ "conv"; "ldlp" ] );
            ("misses_per_lookup = model_misses / lookups", rate_matches);
          ]
        [
          int "flows"; text "scheme"; text "discipline"; int "lookups";
          int "model_misses"; fixed 6 "misses_per_lookup"; int "evictions";
          int "digest"; flag "ok";
        ];
    ]
