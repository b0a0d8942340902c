module Mesh = Ldlp_mesh.Mesh

type divergence = { d_what : string; d_left : string; d_right : string }

let pp_divergence fmt d =
  Format.fprintf fmt "%s: %s vs %s" d.d_what d.d_left d.d_right

let fail what left right = Error { d_what = what; d_left = left; d_right = right }

let ints a = String.concat "," (List.map string_of_int (Array.to_list a))

let ( let* ) r f = match r with Error _ as e -> e | Ok () -> f ()

(* Re-derive both conservation identities from the raw counters instead
   of trusting the recorded flag. *)
let conservation (t : Mesh.storm) =
  let c = t.Mesh.t_causes in
  let sent = c.Mesh.offered + c.Mesh.duplicated in
  let accounted =
    c.Mesh.arrived + c.Mesh.fault_dropped + c.Mesh.down_dropped + c.Mesh.flushed
    + c.Mesh.crashed
  in
  if sent <> accounted then
    fail "wire conservation (offered+dup = arrived+dropped+down+flushed+crashed)"
      (string_of_int sent) (string_of_int accounted)
  else
    let handled =
      c.Mesh.delivered + c.Mesh.sig_delivered + c.Mesh.dup_dropped
      + c.Mesh.corrupt_dropped + c.Mesh.lost_in_crash
    in
    if c.Mesh.arrived <> handled then
      fail "host conservation (arrived = delivered+sig+dupdrop+badframe+lost)"
        (string_of_int c.Mesh.arrived)
        (string_of_int handled)
    else if not t.Mesh.t_conserved then
      fail "t_conserved flag" "true (re-derived)" "false (recorded)"
    else Ok ()

(* Every offered call ends exactly one way — completed or explicitly
   abandoned; nothing hangs in a retry loop or dies silently. *)
let completion (t : Mesh.storm) =
  let ended = t.Mesh.calls_completed + t.Mesh.calls_abandoned in
  if ended <> t.Mesh.calls_requested then
    fail "eventual completion (completed+abandoned = requested)"
      (string_of_int t.Mesh.calls_requested)
      (string_of_int ended)
  else if t.Mesh.calls_failed <> 0 then
    fail "legacy failure path unused under recovery" "0"
      (string_of_int t.Mesh.calls_failed)
  else
    let pd = Array.fold_left ( + ) 0 t.Mesh.pair_done in
    let pa = Array.fold_left ( + ) 0 t.Mesh.pair_abandoned in
    if pd <> t.Mesh.calls_completed then
      fail "per-pair completions vs total" (string_of_int pd)
        (string_of_int t.Mesh.calls_completed)
    else if pa <> t.Mesh.calls_abandoned then
      fail "per-pair abandonments vs total" (string_of_int pa)
        (string_of_int t.Mesh.calls_abandoned)
    else Ok ()

let leak (t : Mesh.storm) =
  if not t.Mesh.t_leak_free then
    fail "msg-pool leak audit across crash/restart" "0 outstanding"
      "non-zero outstanding"
  else Ok ()

(* The retry timeline is a function of wire-clock events and private
   per-pair RNG streams only, so every wiring must agree on who
   completed, who was abandoned, how many retries and deferrals it took
   and every time-to-recover sample. *)
let equivalence storms =
  match storms with
  | [] | [ _ ] -> Ok ()
  | first :: rest ->
    let name (t : Mesh.storm) = Mesh.wiring_name t.Mesh.t_wiring in
    let rec check = function
      | [] -> Ok ()
      | (t : Mesh.storm) :: tl ->
        let tag what =
          Printf.sprintf "%s (%s vs %s)" what (name first) (name t)
        in
        if t.Mesh.pair_done <> first.Mesh.pair_done then
          fail (tag "per-pair delivery multiset")
            (ints first.Mesh.pair_done) (ints t.Mesh.pair_done)
        else if t.Mesh.pair_abandoned <> first.Mesh.pair_abandoned then
          fail (tag "per-pair abandonment multiset")
            (ints first.Mesh.pair_abandoned)
            (ints t.Mesh.pair_abandoned)
        else if t.Mesh.calls_retried <> first.Mesh.calls_retried then
          fail (tag "retry count")
            (string_of_int first.Mesh.calls_retried)
            (string_of_int t.Mesh.calls_retried)
        else if t.Mesh.setups_deferred <> first.Mesh.setups_deferred then
          fail (tag "admission deferrals")
            (string_of_int first.Mesh.setups_deferred)
            (string_of_int t.Mesh.setups_deferred)
        else if t.Mesh.ttr_samples <> first.Mesh.ttr_samples then
          fail (tag "time-to-recover samples") "per-pair TTR lists"
            "differ"
        else check tl
    in
    check rest

(* The shard count of the shard-merge probe. *)
let shards = 3

let run ?domains ?calls_per_pair cfg =
  let storms = Mesh.compare_storm ?domains ?calls_per_pair cfg in
  let rec each n = function
    | [] -> Ok n
    | (t : Mesh.storm) :: tl -> (
      let checks =
        let* () = conservation t in
        let* () = completion t in
        leak t
      in
      match checks with
      | Error d ->
        Error
          {
            d with
            d_what =
              Printf.sprintf "[%s] %s"
                (Mesh.wiring_name t.Mesh.t_wiring)
                d.d_what;
          }
      | Ok () -> each (n + 3) tl)
  in
  match each 0 storms with
  | Error _ as e -> e
  | Ok n -> (
    match equivalence storms with
    | Error _ as e -> e
    | Ok () -> (
      (* Retry-count determinism: the same run twice is equal in every
         field, TTR samples and RNG-jittered backoffs included. *)
      let again =
        Mesh.run_storm ~wiring:Mesh.Ldlp ?calls_per_pair cfg
      in
      let once =
        List.find (fun (t : Mesh.storm) -> t.Mesh.t_wiring = Mesh.Ldlp) storms
      in
      if again <> once then
        fail "determinism (same crash storm twice)" "run 1" "run 2 differs"
      else
        (* Shard-merge exactness under the crash plan. *)
        let sh =
          Mesh.run_storm_sharded ~wiring:Mesh.Duplex ~shards ?calls_per_pair cfg
        in
        let base =
          List.find
            (fun (t : Mesh.storm) -> t.Mesh.t_wiring = Mesh.Duplex)
            storms
        in
        if sh.Mesh.ss_storm <> base then
          fail
            (Printf.sprintf "sharded crash storm (shards=%d vs 1)" shards)
            "merged result" "differs from single-domain"
        else Ok (n + 3)))
