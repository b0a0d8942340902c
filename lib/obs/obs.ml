let enabled_ref =
  ref
    (match Sys.getenv_opt "LDLP_METRICS" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let enabled () = !enabled_ref

let with_enabled b f =
  let was = !enabled_ref in
  enabled_ref := b;
  Fun.protect ~finally:(fun () -> enabled_ref := was) f
