type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* A recursive-descent reader, kept in-tree because the container ships
   no JSON library and the grammar is tiny. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = fail "offset %d: %s" !pos msg in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
        | Some 'n' -> Buffer.add_char b '\n'
        | Some 't' -> Buffer.add_char b '\t'
        | Some 'r' -> Buffer.add_char b '\r'
        | Some 'u' ->
          if !pos + 5 > n then fail "truncated \\u escape";
          (* The printer only escapes control characters, so a code point
             below 0x80 is all a document ever needs. *)
          (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
          | _ -> fail "unsupported \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if float_of_string_opt text = None then fail "malformed number";
    Num text
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then (advance (); Obj [])
      else
        let rec members acc =
          skip_ws ();
          let key = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((key, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        members []
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then (advance (); Arr [])
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    Ok v
  with Error msg -> Error msg

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let to_string v =
  let b = Buffer.create 4096 in
  let rec write indent = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Num text -> Buffer.add_string b text
    | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | Arr items -> block indent '[' ']' (write (indent + 2)) items
    | Obj members ->
      block indent '{' '}'
        (fun (key, v) ->
          write (indent + 2) (Str key);
          Buffer.add_string b ": ";
          write (indent + 2) v)
        members
  and block : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
   fun indent opening closing item items ->
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        Buffer.add_string b (if i = 0 then "\n" else ",\n");
        Buffer.add_string b (String.make (indent + 2) ' ');
        item x)
      items;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make indent ' ');
    Buffer.add_char b closing
  in
  write 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let member o key =
  match o with
  | Obj members -> (
    match List.assoc_opt key members with
    | Some v -> v
    | None -> fail "missing field %S" key)
  | _ -> fail "field %S read from a non-object" key

let int o key =
  match member o key with
  | Num text -> (
    match int_of_string_opt text with
    | Some n -> n
    | None -> fail "field %S is not an integer" key)
  | _ -> fail "field %S is not an integer" key

let num o key =
  match member o key with
  | Num text -> float_of_string text
  | _ -> fail "field %S is not a number" key

let str o key =
  match member o key with Str s -> s | _ -> fail "field %S is not a string" key

let bool o key =
  match member o key with Bool v -> v | _ -> fail "field %S is not a boolean" key

let arr o key =
  match member o key with Arr l -> l | _ -> fail "field %S is not an array" key
