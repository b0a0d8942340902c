type packet = { at : float; size : int }

type t = { mutable lookahead : packet option; pull_raw : unit -> packet option }

let make f = { lookahead = None; pull_raw = f }

let pull t =
  match t.lookahead with
  | Some p ->
    t.lookahead <- None;
    Some p
  | None -> t.pull_raw ()

let peek t =
  match t.lookahead with
  | Some _ as p -> p
  | None ->
    let p = t.pull_raw () in
    t.lookahead <- p;
    p

let of_list packets =
  let rec check = function
    | a :: (b :: _ as rest) ->
      if b.at < a.at then invalid_arg "Source.of_list: not time-sorted";
      check rest
    | _ -> ()
  in
  check packets;
  let remaining = ref packets in
  make (fun () ->
      match !remaining with
      | [] -> None
      | p :: rest ->
        remaining := rest;
        Some p)

let to_list ?(limit = 1_000_000) t =
  let rec go acc n =
    if n >= limit then List.rev acc
    else
      match pull t with
      | None -> List.rev acc
      | Some p -> go (p :: acc) (n + 1)
  in
  go [] 0

let limit_time t horizon =
  let exhausted = ref false in
  make (fun () ->
      if !exhausted then None
      else
        match peek t with
        | Some p when p.at < horizon -> pull t
        | _ ->
          exhausted := true;
          None)

let limit_count t n =
  let left = ref n in
  make (fun () ->
      if !left <= 0 then None
      else begin
        decr left;
        pull t
      end)

let map_size t f =
  make (fun () ->
      match pull t with
      | None -> None
      | Some p -> Some { p with size = f p.size })

let merge a b =
  make (fun () ->
      match (peek a, peek b) with
      | None, None -> None
      | Some _, None -> pull a
      | None, Some _ -> pull b
      | Some pa, Some pb -> if pa.at <= pb.at then pull a else pull b)

let scale_time t factor =
  if factor <= 0.0 then invalid_arg "Source.scale_time: factor must be positive";
  make (fun () ->
      match pull t with
      | None -> None
      | Some p -> Some { p with at = p.at *. factor })
