module Rng = Ldlp_sim.Rng

type t = {
  hosts : int;
  degree : int;
  edges : (int * int) array;
  adj : int array array;
  links : int array array;
}

(* Redraw budget of the pairing model.  Dense small graphs need the most:
   at degree 5, one draw in tens of thousands on 6 to 10 hosts is simple
   and connected, and at 10,000 attempts about 2% of seeds at 8 hosts
   failed.  An attempt allocates nothing, so the budget costs time only
   on graphs that need it. *)
let max_attempts = 1_000_000

(* State reused by every attempt of one generation: the stubs and the
   adjacency the attempt fills, host [h]'s neighbours at
   [row.(h * degree) ..], [fill.(h)] of them so far. *)
type pairing = { stubs : int array; row : int array; fill : int array }

(* Is [v] among the first [fill.(u)] neighbours of [u], from the [j]th? *)
let rec has_neighbor s ~degree u v j =
  j < s.fill.(u)
  && (s.row.((u * degree) + j) = v || has_neighbor s ~degree u v (j + 1))

let add_neighbor s ~degree u v =
  s.row.((u * degree) + s.fill.(u)) <- v;
  s.fill.(u) <- s.fill.(u) + 1

(* Pairing-model attempt: shuffle [degree] stubs per host, match them
   pairwise into the adjacency, reject self-loops and parallel edges.
   The shuffle draws the same numbers whatever the outcome, so the
   accepted draw (and with it the graph) depends only on the seed. *)
let attempt rng s ~hosts ~degree =
  let nstubs = hosts * degree in
  for k = 0 to nstubs - 1 do
    s.stubs.(k) <- k / degree
  done;
  Rng.shuffle rng s.stubs;
  Array.fill s.fill 0 hosts 0;
  let ok = ref true and i = ref 0 in
  while !ok && !i < nstubs / 2 do
    let u = s.stubs.(2 * !i) and v = s.stubs.((2 * !i) + 1) in
    if u = v || has_neighbor s ~degree u v 0 then ok := false
    else begin
      add_neighbor s ~degree u v;
      add_neighbor s ~degree v u
    end;
    incr i
  done;
  !ok

(* Hosts reachable from host 0 over a flat adjacency laid out as
   [pairing.row]. *)
let reachable ~hosts ~degree row =
  let seen = Array.make hosts false and queue = Array.make hosts 0 in
  seen.(0) <- true;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for j = u * degree to (u * degree) + degree - 1 do
      let v = row.(j) in
      if not seen.(v) then begin
        seen.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

(* The canonical form of an accepted draw.  Edges are sorted as ints
   [u * hosts + v] (u < v), which is lexicographic order on [(u, v)].
   Filling each host's row in that edge order lists its neighbours in
   ascending order: the edges [(w, h)] with [w < h] come first, by [w],
   then the edges [(h, v)], by [v]. *)
let canonical ~hosts ~degree row =
  let codes = Array.make (hosts * degree / 2) 0 in
  let n = ref 0 in
  for u = 0 to hosts - 1 do
    for j = u * degree to (u * degree) + degree - 1 do
      let v = row.(j) in
      if u < v then begin
        codes.(!n) <- (u * hosts) + v;
        incr n
      end
    done
  done;
  Array.sort Int.compare codes;
  let edges = Array.map (fun c -> (c / hosts, c mod hosts)) codes in
  let adj = Array.init hosts (fun _ -> Array.make degree (-1)) in
  let links = Array.init hosts (fun _ -> Array.make degree (-1)) in
  let fill = Array.make hosts 0 in
  let put u v li =
    adj.(u).(fill.(u)) <- v;
    links.(u).(fill.(u)) <- li;
    fill.(u) <- fill.(u) + 1
  in
  Array.iteri
    (fun p (u, v) ->
      put u v (2 * p);
      put v u ((2 * p) + 1))
    edges;
  { hosts; degree; edges; adj; links }

let generate ~hosts ~degree ~seed =
  if hosts < 2 then invalid_arg "Topology.generate: hosts < 2";
  if degree < 1 || degree >= hosts then
    invalid_arg "Topology.generate: need 1 <= degree < hosts";
  if (hosts * degree) mod 2 <> 0 then
    invalid_arg "Topology.generate: hosts * degree must be even";
  if degree = 1 && hosts > 2 then
    invalid_arg
      "Topology.generate: degree 1 on more than 2 hosts is a matching, \
       never connected";
  let rng = Rng.create ~seed in
  let s =
    {
      stubs = Array.make (hosts * degree) 0;
      row = Array.make (hosts * degree) 0;
      fill = Array.make hosts 0;
    }
  in
  let rec draw k =
    if k >= max_attempts then
      invalid_arg
        (Printf.sprintf
           "Topology.generate: no simple connected %d-regular graph on %d \
            hosts after %d attempts (seed %d)"
           degree hosts max_attempts seed)
    else if
      attempt rng s ~hosts ~degree && reachable ~hosts ~degree s.row = hosts
    then canonical ~hosts ~degree s.row
    else draw (k + 1)
  in
  draw 0

let edge_count t = Array.length t.edges

let directed_index t ~src ~dst =
  let row = t.adj.(src) in
  let rec find i =
    if i = Array.length row then
      invalid_arg
        (Printf.sprintf "Topology.directed_index: no edge %d-%d" src dst)
    else if row.(i) = dst then t.links.(src).(i)
    else find (i + 1)
  in
  find 0

let is_connected t =
  reachable ~hosts:t.hosts ~degree:t.degree (Array.concat (Array.to_list t.adj))
  = t.hosts

let eccentricity t h =
  let dist = Array.make t.hosts (-1) in
  let queue = Queue.create () in
  Queue.push h queue;
  dist.(h) <- 0;
  let ecc = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          if dist.(v) > !ecc then ecc := dist.(v);
          Queue.push v queue
        end)
      t.adj.(u)
  done;
  !ecc
