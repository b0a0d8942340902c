let widths header rows =
  let ncols =
    List.fold_left (fun acc r -> Stdlib.max acc (List.length r))
      (List.length header) rows
  in
  let w = Array.make ncols 0 in
  let feed row =
    List.iteri (fun i cell -> w.(i) <- Stdlib.max w.(i) (String.length cell)) row
  in
  feed header;
  List.iter feed rows;
  w

let pad w s = s ^ String.make (Stdlib.max 0 (w - String.length s)) ' '

let render_row w row =
  let cells = List.mapi (fun i cell -> pad w.(i) cell) row in
  (* Drop trailing padding so lines don't end in spaces. *)
  let line = String.concat "  " cells in
  let n = ref (String.length line) in
  while !n > 0 && line.[!n - 1] = ' ' do
    decr n
  done;
  String.sub line 0 !n

let render ~header rows =
  let w = widths header rows in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row w header);
  Buffer.add_char buf '\n';
  let rule = Array.to_list (Array.map (fun n -> String.make n '-') w) in
  Buffer.add_string buf (render_row w rule);
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row w row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let fmt_si x =
  let ax = Float.abs x in
  let value, suffix =
    if ax = 0.0 then (0.0, "")
    else if ax >= 1e9 then (x /. 1e9, "G")
    else if ax >= 1e6 then (x /. 1e6, "M")
    else if ax >= 1e3 then (x /. 1e3, "k")
    else if ax >= 1.0 then (x, "")
    else if ax >= 1e-3 then (x *. 1e3, "m")
    else if ax >= 1e-6 then (x *. 1e6, "u")
    else (x *. 1e9, "n")
  in
  Printf.sprintf "%.3g%s" value suffix

let fmt_pct x =
  if Float.abs x < 0.005 then "0%"
  else Printf.sprintf "%+.0f%%" (x *. 100.0)
