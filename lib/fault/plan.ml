type t = {
  drop : float;
  dup : float;
  corrupt : float;
  reorder : float;
  reorder_window : int;
  jitter : float;
  down : (float * float) list;
}

let none =
  {
    drop = 0.0;
    dup = 0.0;
    corrupt = 0.0;
    reorder = 0.0;
    reorder_window = 4;
    jitter = 0.0;
    down = [];
  }

let validate t =
  let prob name p =
    if p < 0.0 || p >= 1.0 then
      invalid_arg (Printf.sprintf "Plan: %s probability %g outside [0,1)" name p)
  in
  prob "drop" t.drop;
  prob "dup" t.dup;
  prob "corrupt" t.corrupt;
  prob "reorder" t.reorder;
  if t.reorder > 0.0 && t.reorder_window < 1 then
    invalid_arg "Plan: reorder requires a window >= 1";
  if t.jitter < 0.0 then invalid_arg "Plan: negative jitter";
  ignore
    (List.fold_left
       (fun prev (a, b) ->
         if a < prev || b <= a then
           invalid_arg "Plan: down episodes must be sorted and disjoint";
         b)
       0.0 t.down)

let v ?(drop = 0.0) ?(dup = 0.0) ?(corrupt = 0.0) ?(reorder = 0.0)
    ?(reorder_window = 4) ?(jitter = 0.0) ?(down = []) () =
  let t = { drop; dup; corrupt; reorder; reorder_window; jitter; down } in
  validate t;
  t

let is_none t =
  t.drop = 0.0 && t.dup = 0.0 && t.corrupt = 0.0 && t.reorder = 0.0
  && t.jitter = 0.0 && t.down = []

(* Whether [now] lies outside every episode.  A toplevel walk: a
   [List.exists] whose lambda captured [now] would allocate a closure on
   every frame a link sends. *)
let rec outside now = function
  | [] -> true
  | (a, b) :: rest -> (not (now >= a && now < b)) && outside now rest

let link_up t now = outside now t.down

let describe t =
  if is_none t then "pristine"
  else begin
    let parts = ref [] in
    let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
    let pct p = 100.0 *. p in
    if t.down <> [] then add "down=%d" (List.length t.down);
    if t.jitter > 0.0 then add "jitter=%gus" (1e6 *. t.jitter);
    if t.reorder > 0.0 then add "reorder=%g%%/w%d" (pct t.reorder) t.reorder_window;
    if t.corrupt > 0.0 then add "corrupt=%g%%" (pct t.corrupt);
    if t.dup > 0.0 then add "dup=%g%%" (pct t.dup);
    if t.drop > 0.0 then add "drop=%g%%" (pct t.drop);
    String.concat " " !parts
  end

(* ---------- Host lifecycle plans ---------- *)

type host = { crash : (float * float) list }

let host_none = { crash = [] }

let validate_host h =
  ignore
    (List.fold_left
       (fun prev (a, b) ->
         if a < prev || b <= a then
           invalid_arg "Plan: crash episodes must be sorted and disjoint";
         b)
       0.0 h.crash)

let host_v ?(crash = []) () =
  let h = { crash } in
  validate_host h;
  h

let host_is_none h = h.crash = []

let host_up h now = outside now h.crash

let describe_host h =
  if h.crash = [] then "immortal"
  else
    String.concat " "
      (List.map
         (fun (a, b) -> Printf.sprintf "crash@%gs+%gms" a (1e3 *. (b -. a)))
         h.crash)

module Rng = Ldlp_sim.Rng

(* One RNG stream, hosts drawn in index order with a fixed per-host draw
   sequence (victim?, then per episode: start, outage, flap?, gap) — a
   lifecycle is a pure function of its arguments, like every other plan. *)
let lifecycle ?(victims = 0.25) ?(episodes = 1) ?(min_outage = 0.005)
    ?(mean_outage = 0.05) ?(flap = 0.0) ~seed ~hosts ~horizon () =
  if hosts < 0 then invalid_arg "Plan.lifecycle: hosts < 0";
  if horizon <= 0.0 then invalid_arg "Plan.lifecycle: horizon <= 0";
  if victims < 0.0 || victims > 1.0 then
    invalid_arg "Plan.lifecycle: victims outside [0,1]";
  if episodes < 1 then invalid_arg "Plan.lifecycle: episodes < 1";
  if min_outage <= 0.0 || mean_outage < min_outage then
    invalid_arg "Plan.lifecycle: need 0 < min_outage <= mean_outage";
  if flap < 0.0 || flap > 1.0 then
    invalid_arg "Plan.lifecycle: flap outside [0,1]";
  let rng = Rng.create ~seed in
  let slot = horizon /. float_of_int episodes in
  Array.init hosts (fun _ ->
      if not (Rng.bool rng victims) then host_none
      else begin
        let eps = ref [] in
        for e = 0 to episodes - 1 do
          let lo = (float_of_int e *. slot) +. (0.05 *. slot) in
          let start = lo +. Rng.float rng (0.4 *. slot) in
          let outage =
            min_outage
            +. Rng.float rng (2.0 *. (mean_outage -. min_outage))
          in
          let stop = Float.min (start +. outage) (float_of_int (e + 1) *. slot) in
          if flap > 0.0 && Rng.bool rng flap then begin
            (* Flapping: come back briefly, then die again for the rest
               of the episode. *)
            let cut = start +. (0.3 *. (stop -. start)) in
            let gap = 0.2 *. (stop -. start) *. Rng.unit_float rng in
            eps := (cut +. gap, stop) :: (start, cut) :: !eps
          end
          else eps := (start, stop) :: !eps
        done;
        let h = { crash = List.rev !eps } in
        validate_host h;
        h
      end)

let lifecycle_episodes ls =
  Array.fold_left (fun acc h -> acc + List.length h.crash) 0 ls

let describe_lifecycle ls =
  let n = Array.length ls in
  let victims =
    Array.fold_left (fun acc h -> if host_is_none h then acc else acc + 1) 0 ls
  in
  if victims = 0 then Printf.sprintf "%d hosts immortal" n
  else
    Printf.sprintf "%d/%d hosts crash (%d episodes)" victims n
      (lifecycle_episodes ls)
