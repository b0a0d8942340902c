let add buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let b2s ok = if ok then "ok" else "FAIL"

let render_plan buf ~groups =
  add buf "placement (groups=%d):\n" groups;
  add buf "  %-9s" "policy";
  List.iter (fun s -> add buf " %8s" (Printf.sprintf "shards=%d" s)) [ 1; 2; 4 ];
  add buf "\n";
  List.iter
    (fun policy ->
      add buf "  %-9s" (Shard.Policy.name policy);
      List.iter
        (fun shards ->
          let plan = Shard.Policy.plan policy ~shards ~groups in
          add buf " %8s"
            (String.concat ""
               (Array.to_list (Array.map string_of_int plan))))
        [ 1; 2; 4 ];
      add buf "\n")
    [ Shard.Policy.Affinity; Shard.Policy.Hash ]

let render_stackwork buf ~seed =
  let spec = Stackwork.random_spec ~seed () in
  add buf "stackwork: %s\n" (Format.asprintf "%a" Stackwork.pp_spec spec);
  let base = Stackwork.run ~shards:1 spec in
  let variants =
    [
      ("shards=1", base);
      ("shards=2", Stackwork.run ~shards:2 spec);
      ("shards=4", Stackwork.run ~shards:4 spec);
      ("shards=4 hash", Stackwork.run ~shards:4 ~policy:Shard.Policy.Hash spec);
    ]
  in
  List.iter
    (fun (name, r) ->
      let inj, del, cons = Stackwork.totals r in
      add buf
        "  %-21s rounds=%-3d inj=%-3d del=%-3d cons=%-3d xfer=%-3d replay=%s ledger=%s\n"
        name r.Stackwork.r_stats.Shard.rs_rounds inj del cons
        r.Stackwork.r_stats.Shard.rs_transferred
        (b2s (Stackwork.equal_reports base r))
        (b2s (Stackwork.ledger_ok r)))
    variants;
  Array.iter
    (fun gr ->
      add buf "  group %d delivered: %s\n" gr.Stackwork.gr_group
        (String.concat ";" gr.Stackwork.gr_digest))
    base.Stackwork.r_groups

let render_echo buf ~seed =
  let cfg = Shard_echo.config ~conns:4 ~chunks:8 ~seed () in
  let base = Shard_echo.run ~shards:1 cfg in
  add buf "echo: conns=%d chunks=%d chunk_bytes=%d\n" cfg.Shard_echo.conns
    cfg.Shard_echo.chunks cfg.Shard_echo.chunk_bytes;
  Array.iter
    (fun c ->
      add buf
        "  conn %d  done=%-4s integrity=%-4s bytes=%-4d round=%-3d frames=%d+%d leak_free=%s\n"
        c.Shard_echo.cr_conn
        (b2s c.Shard_echo.cr_completed)
        (b2s c.Shard_echo.cr_integrity)
        c.Shard_echo.cr_echoed_bytes c.Shard_echo.cr_completion_round
        c.Shard_echo.cr_client_frames c.Shard_echo.cr_server_frames
        (b2s c.Shard_echo.cr_leak_free))
    base.Shard_echo.e_conns;
  List.iter
    (fun (name, r) ->
      add buf "  %-21s replay=%s all_ok=%s rounds=%d xfer=%d\n" name
        (b2s (Shard_echo.equal_reports base r))
        (b2s (Shard_echo.all_ok r))
        r.Shard_echo.e_stats.Shard.rs_rounds
        r.Shard_echo.e_stats.Shard.rs_transferred)
    [
      ("shards=2", Shard_echo.run ~shards:2 cfg);
      ("shards=4", Shard_echo.run ~shards:4 cfg);
      ("shards=3 hash", Shard_echo.run ~shards:3 ~policy:Shard.Policy.Hash cfg);
    ]

let render ~seed =
  let buf = Buffer.create 4096 in
  add buf "sharded data path: replayable per-domain pipelines\n";
  render_plan buf ~groups:8;
  render_stackwork buf ~seed;
  render_echo buf ~seed;
  Buffer.contents buf
