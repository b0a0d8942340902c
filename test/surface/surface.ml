(* The exported surface is the used surface, options included.

   Reads every interface under lib/ for the values it exports, nested
   signatures included, and the optional parameters ([?label]s) in each
   value's type; and every implementation in the build for the values its
   code refers to and the optional arguments it passes them.  What counts
   as a use is what the compiler resolved each identifier to, not a
   textual match.  Fails on:
   - a value that nothing refers to;
   - a value referred to only inside its own module;
   - a value referred to outside its module only by tests and not named
     in the allowlist;
   - an option that nothing passes;
   - an option that only tests pass, unless the allowlist names it or its
     value;
   - an allowlist line that names no such value or option.

   An option counts as passed by [~label:e] or a forwarded [?label:e] in
   an application of its value, anywhere, its own module included.  Not
   by an omission: the compiler fills an omitted optional argument with
   a [None] at a ghost location, and leaves it out of a partial
   application.

   Test code is any module whose source, relative to the scanned root,
   is under test/ or named test_*.  Each allowlist line is
   [Library.Module.value  reason] or [Library.Module.value?label  reason].

   Usage: surface.exe ALLOWLIST ROOT  (ROOT is a build directory such as
   _build/default, built with the check alias so that executables have
   .cmt files). *)

open Typedtree

let rec files ext dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files ext path
         else if Filename.check_suffix name ext then [ path ]
         else [])

(* Ldlp_buf__Mbuf -> Ldlp_buf.Mbuf *)
let display unit =
  let n = String.length unit in
  let rec go i =
    if i + 1 >= n then unit
    else if unit.[i] = '_' && unit.[i + 1] = '_' then
      String.sub unit 0 i ^ "." ^ String.sub unit (i + 2) (n - i - 2)
    else go (i + 1)
  in
  go 0

type export = {
  unit : string;
  local : string;
  uid : Shape.Uid.t;
  options : string list;
}

let rec options ty =
  match ty.ctyp_desc with
  | Ttyp_arrow (Optional l, _, ret) -> l :: options ret
  | Ttyp_arrow (_, _, ret) | Ttyp_poly (_, ret) -> options ret
  | _ -> []

let rec sig_values unit prefix acc items =
  List.fold_left
    (fun acc item ->
      match item.sig_desc with
      | Tsig_value vd ->
          {
            unit;
            local = prefix ^ vd.val_name.txt;
            uid = vd.val_val.val_uid;
            options = options vd.val_desc;
          }
          :: acc
      | Tsig_module
          { md_name = { txt = Some m; _ };
            md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          sig_values unit (prefix ^ m ^ ".") acc sg.sig_items
      | _ -> acc)
    acc items

let exports root =
  files ".cmti" (Filename.concat root "lib")
  |> List.concat_map (fun path ->
         let cmt = Cmt_format.read_cmt path in
         match cmt.cmt_annots with
         | Interface sg ->
             List.rev (sig_values cmt.cmt_modname "" [] sg.sig_items)
         | _ -> [])

(* What a reference resolves to: a value of another module, by uid, or a
   value of the referring module itself, by (unit, local name). *)
type target = Other of Shape.Uid.t | Own of string * string

(* Uses, by target and option label ("" for the value itself): [true]
   once a program (not a test) makes one. *)
let uses : (target * string, bool) Hashtbl.t = Hashtbl.create 4096

let record key test =
  let prog = Option.value (Hashtbl.find_opt uses key) ~default:false in
  Hashtbl.replace uses key (prog || not test)

(* A module's top-level values and the values of its nested structures
   (not its aliases of other modules), by ident: a reference to one of
   them inside the module carries the implementation's uid, so it is
   matched by name. *)
let top_level str =
  let tbl = Ident.Tbl.create 64 in
  let rec walk prefix items =
    List.iter
      (fun item ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun id -> Ident.Tbl.replace tbl id (prefix ^ Ident.name id))
              (let_bound_idents vbs)
        | Tstr_primitive vd ->
            Ident.Tbl.replace tbl vd.val_id (prefix ^ vd.val_name.txt)
        | Tstr_module
            { mb_id = Some id;
              mb_expr =
                { mod_desc =
                    ( Tmod_structure s
                    | Tmod_constraint ({ mod_desc = Tmod_structure s; _ }, _, _, _) );
                  _ };
              _ } ->
            let name = prefix ^ Ident.name id in
            Ident.Tbl.replace tbl id name;
            walk (name ^ ".") s.str_items
        | _ -> ())
      items
  in
  walk "" str.str_items;
  tbl

let rec local_name tbl = function
  | Path.Pident id -> Ident.Tbl.find_opt tbl id
  | Path.Pdot (p, s) -> Option.map (fun m -> m ^ "." ^ s) (local_name tbl p)
  | _ -> None

(* Whether the unit whose .cmt is at [path] is test code: its source,
   relative to the scanned root, is under test/ or named test_*.  The
   build writes a unit's .cmt three levels below its source's directory
   (dir/.lib.objs/byte/unit.cmt). *)
let is_test ~root path source =
  let prefix = Filename.concat root "" in
  let rel = String.sub path (String.length prefix) (String.length path - String.length prefix) in
  let dir = Filename.(dirname (dirname (dirname rel))) in
  dir = "test"
  || String.starts_with ~prefix:"test/" dir
  || String.starts_with ~prefix:"test_" (Filename.basename source)

let scan_uses root path =
  let cmt = Cmt_format.read_cmt path in
  match cmt.cmt_annots with
  | Implementation str ->
      let unit = cmt.cmt_modname in
      let test =
        is_test ~root path (Option.value cmt.cmt_sourcefile ~default:"")
      in
      let own = top_level str in
      let target p (vd : Types.value_description) =
        match (local_name own p, vd.val_uid) with
        | Some local, _ -> Some (Own (unit, local))
        (* A local binding: its uid is numbered like the unit's interface
           items, so it must not be looked up as one. *)
        | None, Item { comp_unit; _ } when comp_unit = unit -> None
        | None, uid -> Some (Other uid)
      in
      let expr sub e =
        (match e.exp_desc with
        | Texp_ident (p, _, vd) ->
            Option.iter (fun t -> record (t, "") test) (target p vd)
        | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args) ->
            Option.iter
              (fun t ->
                List.iter
                  (function
                    | Asttypes.Optional l, Some arg when not arg.exp_loc.loc_ghost
                      ->
                        record (t, l) test
                    | _ -> ())
                  args)
              (target p vd)
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
      in
      let it = { Tast_iterator.default_iterator with expr } in
      it.structure it str
  | _ -> ()

let read_allowlist path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match String.index_opt line ' ' with
         | Some i
           when String.trim (String.sub line i (String.length line - i)) <> "" ->
             String.sub line 0 i
         | _ ->
             Printf.printf "allowlist line without a reason: %s\n" line;
             exit 1)

let () =
  let allowlist, root =
    match Sys.argv with
    | [| _; a; r |] -> (a, r)
    | _ ->
        prerr_endline "usage: surface.exe ALLOWLIST ROOT";
        exit 2
  in
  let exports = exports root in
  List.iter (scan_uses root) (files ".cmt" root);
  let allowed = read_allowlist allowlist in
  let unused = ref [] and own_only = ref [] and test_only = ref [] in
  let never = ref [] and test_opts = ref [] and n_opts = ref 0 in
  List.iter
    (fun e ->
      let name = display e.unit ^ "." ^ e.local in
      let outside l = Hashtbl.find_opt uses (Other e.uid, l) in
      let inside l = Hashtbl.mem uses (Own (e.unit, e.local), l) in
      (match outside "" with
      | Some true -> ()
      | Some false -> test_only := name :: !test_only
      | None when inside "" -> own_only := name :: !own_only
      | None -> unused := name :: !unused);
      List.iter
        (fun l ->
          incr n_opts;
          let opt = name ^ "?" ^ l in
          match outside l with
          | Some true -> ()
          | _ when inside l -> ()
          | Some false -> test_opts := (opt, name) :: !test_opts
          | None -> never := opt :: !never)
        e.options)
    exports;
  let report title names =
    if names <> [] then begin
      Printf.printf "%s (%d):\n" title (List.length names);
      List.iter (Printf.printf "  %s\n") (List.sort compare names)
    end
  in
  let missing = List.filter (fun n -> not (List.mem n allowed)) !test_only in
  let missing_opts =
    List.filter_map
      (fun (opt, value) ->
        if List.mem opt allowed || List.mem value allowed then None else Some opt)
      !test_opts
  in
  let stale =
    List.filter
      (fun n -> not (List.mem n !test_only || List.mem_assoc n !test_opts))
      allowed
  in
  report "exported, used by nothing: delete it" !unused;
  report "exported, used only inside its own module: drop it from the .mli"
    !own_only;
  report "exported, used outside its module only by tests, not allowlisted"
    missing;
  report "option passed by nothing: delete it" !never;
  report "option passed only by tests, not allowlisted" missing_opts;
  report "allowlisted, but not a test-only export or option" stale;
  Printf.printf
    "surface: %d exported values, %d of them test-only; %d options, %d of \
     them test-only\n"
    (List.length exports) (List.length !test_only) !n_opts
    (List.length !test_opts);
  if
    !unused <> [] || !own_only <> [] || missing <> [] || !never <> []
    || missing_opts <> [] || stale <> []
  then exit 1
