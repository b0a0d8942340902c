(* Touched bytes are kept as a set of disjoint, non-adjacent half-open
   intervals [start, stop) in a map keyed by start.  Insertion merges with
   any overlapping or adjacent neighbours, so queries are simple folds. *)

module IMap = Map.Make (Int)

type t = { mutable ivals : int IMap.t (* start -> stop *) }

let create () = { ivals = IMap.empty }

let touch t ~addr ~len =
  if len > 0 then begin
    let start = addr and stop = addr + len in
    (* Absorb every interval that overlaps or touches [start, stop). *)
    let lo = ref start and hi = ref stop in
    let absorbed = ref [] in
    (* Candidate intervals begin at or before [stop]; the one just below
       [start] may also overlap. *)
    (match IMap.find_last_opt (fun s -> s <= start) t.ivals with
    | Some (s, e) when e >= start ->
      lo := min !lo s;
      hi := max !hi e;
      absorbed := s :: !absorbed
    | _ -> ());
    IMap.iter
      (fun s e ->
        if s > start && s <= stop then begin
          hi := max !hi e;
          absorbed := s :: !absorbed
        end)
      (* Restrict iteration to the affected key range for efficiency. *)
      (let _, _, above = IMap.split start t.ivals in
       let below, _, _ = IMap.split (stop + 1) above in
       below);
    t.ivals <- List.fold_left (fun m s -> IMap.remove s m) t.ivals !absorbed;
    t.ivals <- IMap.add !lo !hi t.ivals
  end

let touched_bytes t = IMap.fold (fun s e acc -> acc + (e - s)) t.ivals 0

let lines t ~line_bytes =
  if line_bytes <= 0 then invalid_arg "Working_set.lines: bad line size";
  (* Count distinct lines across intervals; intervals are disjoint and
     non-adjacent but may share a line with a neighbour, so track the last
     counted line. *)
  let count = ref 0 and last = ref min_int in
  IMap.iter
    (fun s e ->
      let first = s / line_bytes and final = (e - 1) / line_bytes in
      let first = if first <= !last then !last + 1 else first in
      if final >= first then begin
        count := !count + (final - first + 1);
        last := final
      end)
    t.ivals;
  !count

let bytes_in_lines t ~line_bytes = lines t ~line_bytes * line_bytes

let union a b =
  let u = { ivals = a.ivals } in
  IMap.iter (fun s e -> touch u ~addr:s ~len:(e - s)) b.ivals;
  u

let iter_ranges t f = IMap.iter (fun s e -> f s (e - s)) t.ivals
