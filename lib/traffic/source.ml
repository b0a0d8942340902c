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

let to_list t =
  let rec go acc = match pull t with None -> List.rev acc | Some p -> go (p :: acc) in
  go []

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
