let fragment ~mtu ~header ~payload =
  let data_per_frag = (mtu - Ipv4.header_bytes) / 8 * 8 in
  let total = Bytes.length payload in
  if total + Ipv4.header_bytes <= mtu then
    [
      ( {
          header with
          Ipv4.fragment_offset = 0;
          more_fragments = false;
          total_length = Ipv4.header_bytes + total;
        },
        payload );
    ]
  else if header.Ipv4.dont_fragment then
    invalid_arg "Reasm.fragment: DF set and payload exceeds MTU"
  else if data_per_frag < 8 then
    invalid_arg "Reasm.fragment: mtu too small"
  else begin
    let rec go off acc =
      if off >= total then List.rev acc
      else begin
        let len = Int.min data_per_frag (total - off) in
        let last = off + len >= total in
        let h =
          {
            header with
            Ipv4.fragment_offset = off / 8;
            more_fragments = not last;
            total_length = Ipv4.header_bytes + len;
          }
        in
        go (off + len) ((h, Bytes.sub payload off len) :: acc)
      end
    in
    go 0 []
  end

type key = int32 * int32 * int * int (* src, dst, proto, ident *)

type hole = { h_start : int; h_stop : int (* exclusive; max_int = open *) }

type entry = {
  started : float;
  first_header : Ipv4.header option;  (* from the offset-0 fragment *)
  holes : hole list;
  chunks : (int * bytes) list;  (* (byte offset, data) *)
  total : int option;  (* known once the MF=0 fragment arrives *)
}

type t = {
  timeout : float;
  max_datagrams : int;
  table : (key, entry) Hashtbl.t;
}

let create ?(timeout = 30.0) ?(max_datagrams = 64) () =
  if timeout <= 0.0 then invalid_arg "Reasm.create: bad timeout";
  if max_datagrams <= 0 then invalid_arg "Reasm.create: bad capacity";
  { timeout; max_datagrams; table = Hashtbl.create 16 }

type result = Complete of Ipv4.header * bytes | Pending | Rejected of string

let pending t = Hashtbl.length t.table

let expire t ~now =
  let dead =
    Hashtbl.fold
      (fun k e acc -> if now -. e.started > t.timeout then k :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) dead;
  List.length dead

let evict_oldest t =
  let oldest =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, started) when started <= e.started -> acc
        | _ -> Some (k, e.started))
      t.table None
  in
  match oldest with Some (k, _) -> Hashtbl.remove t.table k | None -> ()

(* Subtract [start, stop) from the hole list; [None] if the fragment
   overlaps already-filled space inconsistently (we reject overlaps
   entirely — the teardrop-attack-proof choice). *)
let punch holes ~start ~stop =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | h :: rest ->
      if stop <= h.h_start || start >= h.h_stop then go (h :: acc) rest
      else if start < h.h_start || stop > h.h_stop then None (* overlap *)
      else begin
        let before =
          if start > h.h_start then [ { h_start = h.h_start; h_stop = start } ]
          else []
        in
        let after =
          if stop < h.h_stop then [ { h_start = stop; h_stop = h.h_stop } ] else []
        in
        go (List.rev_append (before @ after) acc) rest
      end
  in
  (* The fragment must land entirely in holes: find the hole containing
     it.  (Fragments never span holes because filled space between two
     holes would mean overlap.) *)
  let covered =
    List.exists (fun h -> start >= h.h_start && stop <= h.h_stop) holes
  in
  if covered then go [] holes else None

let input t ~now (h : Ipv4.header) payload =
  ignore (expire t ~now);
  if h.Ipv4.fragment_offset = 0 && not h.Ipv4.more_fragments then
    Complete (h, payload)
  else begin
    let len = Bytes.length payload in
    if len = 0 then Rejected "empty fragment"
    else if h.Ipv4.more_fragments && len mod 8 <> 0 then
      Rejected "non-final fragment not a multiple of 8"
    else if (h.Ipv4.fragment_offset * 8) + len > 65535 then
      Rejected "fragment beyond maximum datagram size"
    else begin
      let key =
        ( Addr.Ipv4.to_int32 h.Ipv4.src,
          Addr.Ipv4.to_int32 h.Ipv4.dst,
          h.Ipv4.protocol,
          h.Ipv4.ident )
      in
      let entry =
        match Hashtbl.find_opt t.table key with
        | Some e -> e
        | None ->
          if Hashtbl.length t.table >= t.max_datagrams then evict_oldest t;
          {
            started = now;
            first_header = None;
            holes = [ { h_start = 0; h_stop = max_int } ];
            chunks = [];
            total = None;
          }
      in
      let start = h.Ipv4.fragment_offset * 8 in
      let stop = start + len in
      match punch entry.holes ~start ~stop with
      | None ->
        Hashtbl.remove t.table key;
        Rejected "overlapping fragment"
      | Some holes ->
        let holes, total =
          if not h.Ipv4.more_fragments then
            (* Final fragment: close the tail hole at [stop]. *)
            ( List.filter_map
                (fun hole ->
                  if hole.h_start >= stop then None
                  else if hole.h_stop > stop then
                    Some { hole with h_stop = stop }
                  else Some hole)
                holes,
              Some stop )
          else (holes, entry.total)
        in
        let entry =
          {
            entry with
            holes;
            total;
            chunks = (start, payload) :: entry.chunks;
            first_header =
              (if h.Ipv4.fragment_offset = 0 then Some h else entry.first_header);
          }
        in
        if holes = [] && total <> None && entry.first_header <> None then begin
          Hashtbl.remove t.table key;
          let size = Option.get total in
          let out = Bytes.create size in
          List.iter
            (fun (off, data) -> Bytes.blit data 0 out off (Bytes.length data))
            entry.chunks;
          let hdr = Option.get entry.first_header in
          Complete
            ( {
                hdr with
                Ipv4.more_fragments = false;
                fragment_offset = 0;
                total_length = Ipv4.header_bytes + size;
              },
              out )
        end
        else begin
          Hashtbl.replace t.table key entry;
          Pending
        end
    end
  end
