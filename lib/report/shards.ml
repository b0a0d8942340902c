module Mesh = Ldlp_mesh.Mesh

type row = {
  shards : int;
  components : int;
  completed : int;
  cpu_s_max : float;
  cpu_pairs_per_s : float;
  ok : bool;
}

type t = {
  seed : int;
  rows : row list;
  text : string;
  failures : string list;
}

let hosts = 256

let degree = 4

let pairs = 32

let wiring = Mesh.Duplex

let config ~seed = Mesh.config ~hosts ~degree ~seed ()

let storm ~seed ~shards =
  Mesh.run_storm_sharded ~wiring ~shards ~pairs (config ~seed)

let rate completed secs = if secs > 0.0 then float_of_int completed /. secs else 0.0

(* A row and the gates it fails. *)
let row ~seed ~base shards =
  let sh = storm ~seed ~shards in
  let s = sh.Mesh.ss_storm in
  let cpu_s_max = Array.fold_left Float.max 0.0 sh.Mesh.ss_cpu_per_shard in
  let checks =
    [
      (s = base, "differs from the single-domain storm");
      (s.Mesh.t_conserved, "does not conserve messages");
      (s.Mesh.t_leak_free, "leaks pool messages");
    ]
  in
  ( {
      shards;
      components = sh.Mesh.ss_components;
      completed = s.Mesh.calls_completed;
      cpu_s_max;
      cpu_pairs_per_s = rate s.Mesh.calls_completed cpu_s_max;
      ok = List.for_all fst checks;
    },
    List.filter_map
      (fun (ok, what) ->
        if ok then None else Some (Printf.sprintf "shards=%d %s" shards what))
      checks )

(* Each shard count must raise the CPU-limited rate over the one before. *)
let rec rising = function
  | a :: (b :: _ as rest) ->
    (if b.cpu_pairs_per_s > a.cpu_pairs_per_s then []
     else
       [
         Printf.sprintf
           "shards=%d CPU-limited rate %.3f pairs/s is not above shards=%d's %.3f"
           b.shards b.cpu_pairs_per_s a.shards a.cpu_pairs_per_s;
       ])
    @ rising rest
  | _ -> []

let run ~seed =
  let base = Mesh.run_storm ~wiring ~pairs (config ~seed) in
  let rows, failures = List.split (List.map (row ~seed ~base) [ 1; 2; 4 ]) in
  let text =
    Printf.sprintf
      "Sharded call storm (seed %d): %d hosts, degree %d, %s wiring, %d pairs, \
       %d calls\n\
       ok: equal to the single-domain storm, messages conserved, no leak\n"
      seed hosts degree (Mesh.wiring_name wiring) pairs base.Mesh.calls_requested
    ^ Ldlp_sim.Table.render
        ~header:
          [
            "shards"; "components"; "completed"; "cpu_s_max"; "CPU-limited pairs/s";
            "ok";
          ]
        (List.map
           (fun r ->
             [
               string_of_int r.shards; string_of_int r.components;
               string_of_int r.completed; Printf.sprintf "%.9f" r.cpu_s_max;
               Printf.sprintf "%.3f" r.cpu_pairs_per_s; (if r.ok then "yes" else "no");
             ])
           rows)
  in
  { seed; rows; text; failures = List.concat failures @ rising rows }

let doc t ~host_cores ~wall_s =
  let row r wall =
    Schema.
      [
        I r.shards; I r.components; I r.completed; F wall;
        F (rate r.completed wall); F r.cpu_s_max; F r.cpu_pairs_per_s; B r.ok;
      ]
  in
  ( Schema.shards,
    Schema.
      [
        I t.seed; I hosts; I degree; I pairs; I host_cores;
        Rows (List.map2 row t.rows wall_s);
      ] )
