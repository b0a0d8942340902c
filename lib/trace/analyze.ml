module WS = Ldlp_cache.Working_set

type row = {
  category : Funcmap.category;
  code_bytes : int;
  ro_bytes : int;
  mut_bytes : int;
}

type table1 = { rows : row list; total : row }

(* Per-line attribution: the category that first touched a line owns it
   (the paper: "data is classified based on the function executing when it
   was first accessed"), and one store anywhere makes a line mutable. *)
let table1 trace =
  let line_bytes = 32 in
  let code : (int, Funcmap.category) Hashtbl.t = Hashtbl.create 1024 in
  let data : (int, Funcmap.category * bool ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  Tracebuf.iter trace (fun e ->
      let first = e.Event.addr / line_bytes in
      let last = (e.Event.addr + e.Event.len - 1) / line_bytes in
      for line = first to last do
        match e.Event.kind with
        | Event.Code ->
          if not (Hashtbl.mem code line) then
            Hashtbl.add code line e.Event.category
        | Event.Load | Event.Store ->
          let written = e.Event.kind = Event.Store in
          (match Hashtbl.find_opt data line with
          | None -> Hashtbl.add data line (e.Event.category, ref written)
          | Some (_, w) -> if written then w := true)
      done);
  let rows =
    List.map
      (fun cat ->
        let code_lines =
          Hashtbl.fold
            (fun _ c acc -> if c = cat then acc + 1 else acc)
            code 0
        in
        let ro, mut =
          Hashtbl.fold
            (fun _ (c, w) (ro, mut) ->
              if c = cat then if !w then (ro, mut + 1) else (ro + 1, mut)
              else (ro, mut))
            data (0, 0)
        in
        {
          category = cat;
          code_bytes = code_lines * line_bytes;
          ro_bytes = ro * line_bytes;
          mut_bytes = mut * line_bytes;
        })
      Funcmap.categories
  in
  let total =
    List.fold_left
      (fun acc r ->
        {
          acc with
          code_bytes = acc.code_bytes + r.code_bytes;
          ro_bytes = acc.ro_bytes + r.ro_bytes;
          mut_bytes = acc.mut_bytes + r.mut_bytes;
        })
      { category = Funcmap.Device; code_bytes = 0; ro_bytes = 0; mut_bytes = 0 }
      rows
  in
  { rows; total }

type sweep_row = {
  line_size : int;
  code_lines : int;
  code_line_bytes : int;
  ro_lines : int;
  ro_line_bytes : int;
  mut_lines : int;
  mut_line_bytes : int;
}

let byte_sets trace =
  let code = WS.create () and loads = WS.create () and stores = WS.create () in
  Tracebuf.iter trace (fun e ->
      let ws =
        match e.Event.kind with
        | Event.Code -> code
        | Event.Load -> loads
        | Event.Store -> stores
      in
      WS.touch ws ~addr:e.Event.addr ~len:e.Event.len);
  (code, loads, stores)

let line_size_sweep trace =
  let code, loads, stores = byte_sets trace in
  let all_data = WS.union loads stores in
  List.map
    (fun ls ->
      let code_lines = WS.lines code ~line_bytes:ls in
      let mut_lines = WS.lines stores ~line_bytes:ls in
      (* A line is read-only iff it holds loaded bytes and no stored
         bytes: total data lines minus lines containing any store. *)
      let ro_lines = WS.lines all_data ~line_bytes:ls - mut_lines in
      {
        line_size = ls;
        code_lines;
        code_line_bytes = code_lines * ls;
        ro_lines;
        ro_line_bytes = ro_lines * ls;
        mut_lines;
        mut_line_bytes = mut_lines * ls;
      })
    [ 4; 8; 16; 32; 64 ]

type phase_summary = {
  phase : Event.phase;
  code_bytes : int;
  code_refs : int;
  read_bytes : int;
  read_refs : int;
  write_bytes : int;
  write_refs : int;
}

let phases trace =
  List.map
    (fun phase ->
      let code = WS.create () and reads = WS.create () and writes = WS.create () in
      let crefs = ref 0 and rrefs = ref 0 and wrefs = ref 0 in
      Tracebuf.iter trace (fun e ->
          if e.Event.phase = phase then begin
            match e.Event.kind with
            | Event.Code ->
              WS.touch code ~addr:e.Event.addr ~len:e.Event.len;
              (* One reference per instruction (4 bytes on the Alpha). *)
              crefs := !crefs + ((e.Event.len + 3) / 4)
            | Event.Load ->
              WS.touch reads ~addr:e.Event.addr ~len:e.Event.len;
              incr rrefs
            | Event.Store ->
              WS.touch writes ~addr:e.Event.addr ~len:e.Event.len;
              incr wrefs
          end);
      {
        phase;
        code_bytes = WS.touched_bytes code;
        code_refs = !crefs;
        read_bytes = WS.touched_bytes reads;
        read_refs = !rrefs;
        write_bytes = WS.touched_bytes writes;
        write_refs = !wrefs;
      })
    Event.phases

type func_touch = { fn : string; bytes : int }

let functions trace =
  let tbl : (string, WS.t) Hashtbl.t = Hashtbl.create 64 in
  Tracebuf.iter trace (fun e ->
      if e.Event.kind = Event.Code && e.Event.fn <> "" then begin
        let ws =
          match Hashtbl.find_opt tbl e.Event.fn with
          | Some ws -> ws
          | None ->
            let ws = WS.create () in
            Hashtbl.add tbl e.Event.fn ws;
            ws
        in
        WS.touch ws ~addr:e.Event.addr ~len:e.Event.len
      end);
  Hashtbl.fold (fun fn ws acc -> { fn; bytes = WS.touched_bytes ws } :: acc) tbl []
  |> List.sort (fun a b -> compare b.bytes a.bytes)

type dilution = {
  touched_code_bytes : int;
  line_code_bytes : int;
  dilution_fraction : float;
  dense_lines : int;
  sparse_lines : int;
}

let dilution trace =
  let line_bytes = 32 in
  let code, _, _ = byte_sets trace in
  let touched = WS.touched_bytes code in
  let sparse_lines = WS.lines code ~line_bytes in
  let line_code_bytes = sparse_lines * line_bytes in
  let dense_lines = (touched + line_bytes - 1) / line_bytes in
  {
    touched_code_bytes = touched;
    line_code_bytes;
    dilution_fraction =
      (if line_code_bytes = 0 then 0.0
       else 1.0 -. (float_of_int touched /. float_of_int line_code_bytes));
    dense_lines;
    sparse_lines;
  }
