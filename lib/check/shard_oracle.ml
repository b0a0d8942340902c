module Rng = Ldlp_sim.Rng
module Shard = Ldlp_shard.Shard
module Stackwork = Ldlp_shard.Stackwork
module Shard_echo = Ldlp_shard.Shard_echo

type placement = { pl_shards : int; pl_policy : Shard.Policy.t }

let pp_placement ppf p =
  Format.fprintf ppf "shards=%d policy=%s" p.pl_shards
    (Shard.Policy.name p.pl_policy)

let placements ~rng =
  let n = 3 + Rng.int rng 3 in
  List.init n (fun _ ->
      {
        pl_shards = 2 + Rng.int rng 4;
        pl_policy = (if Rng.bool rng 0.5 then Shard.Policy.Affinity else Shard.Policy.Hash);
      })

let differential spec pls =
  let base = Stackwork.run ~shards:1 spec in
  if not (Stackwork.ledger_ok base) then
    Error "single-shard reference fails its own conservation ledger"
  else
    let check pl =
      let r = Stackwork.run ~policy:pl.pl_policy ~shards:pl.pl_shards spec in
      match Stackwork.diff_reports base r with
      | Some d -> Error (Format.asprintf "[%a] %s" pp_placement pl d)
      | None ->
        if not (Stackwork.ledger_ok r) then
          Error (Format.asprintf "[%a] conservation ledger broken" pp_placement pl)
        else if Stackwork.wire_multiset base <> Stackwork.wire_multiset r then
          Error (Format.asprintf "[%a] wire multiset differs" pp_placement pl)
        else Ok ()
    in
    List.fold_left
      (fun acc pl -> match acc with Error _ -> acc | Ok () -> check pl)
      (Ok ()) pls

let echo_differential ~seed =
  let cfg = Shard_echo.config ~seed () in
  let base = Shard_echo.run ~shards:1 cfg in
  if not (Shard_echo.all_ok base) then
    Error "echo reference (shards=1) did not complete cleanly"
  else
    let rec go = function
      | [] -> Ok ()
      | (shards, policy) :: rest ->
        let r = Shard_echo.run ~policy ~shards cfg in
        if not (Shard_echo.equal_reports base r) then
          Error (Printf.sprintf "echo replay diverged at shards=%d" shards)
        else if not (Shard_echo.all_ok r) then
          Error (Printf.sprintf "echo replay not clean at shards=%d" shards)
        else go rest
    in
    go
      [
        (2, Shard.Policy.Affinity);
        (3, Shard.Policy.Hash);
        (4, Shard.Policy.Affinity);
      ]

let run_random ~seed ~cases =
  let rng = Rng.create ~seed in
  let rec go i =
    if i >= cases then echo_differential ~seed |> Result.map (fun () -> cases)
    else
      let spec = Stackwork.random_spec ~seed:(Rng.int rng 1_000_000) () in
      match differential spec (placements ~rng) with
      | Ok () -> go (i + 1)
      | Error e ->
        Error (Format.asprintf "case %d: %a: %s" i Stackwork.pp_spec spec e)
  in
  go 0
