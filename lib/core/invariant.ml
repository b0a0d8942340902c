exception Violation of string

let enabled_ref =
  ref
    (match Sys.getenv_opt "LDLP_CHECK" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | Some _ | None -> false)

let enabled () = !enabled_ref

let set_enabled b = enabled_ref := b

let check cond what = if !enabled_ref && not cond then raise (Violation what)
