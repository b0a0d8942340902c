type 'a t = {
  mutable id : int;
  mutable arrival : float;
  mutable flow : int;
  mutable size : int;
  mutable payload : 'a;
  mutable pool_state : int;
}

let heap_state = -1

(* Message ids are drawn from a per-domain counter (Domain.DLS), so the
   id sequence each domain observes is deterministic regardless of what
   other domains do — a process-global counter would be a data race the
   moment two domains acquire concurrently (two shards of the sharded
   mesh storm, two scenarios of a parallel soak), and its interleaving
   would differ run to run.  Ids are unique within a domain, which is
   all the engine ever relies on (scheduling is by queue position and
   priority, never by id); nothing compares ids across domains. *)
let id_counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_id () =
  let c = Domain.DLS.get id_counter in
  incr c;
  !c

let make ?(flow = 0) ?(arrival = 0.0) ?(size = 0) payload =
  { id = fresh_id (); arrival; flow; size; payload; pool_state = heap_state }

let with_payload t payload ~size =
  { t with payload; size; pool_state = heap_state }

(* ---------- preallocated message pool ---------- *)

(* Ownership is encoded in [pool_state]: heap messages are [-1]; a
   message owned by the pool with tag [k] is [2k] while live and
   [2k + 1] while free.  Tags come from one atomic counter (pool
   creation is cold), so pools created on different domains never share
   an encoding and a cross-pool release is detected instead of silently
   splicing a record into the wrong freelist. *)
let next_pool_tag = Atomic.make 1

type 'a pool = {
  tag : int;
  mutable free : 'a t array;
  mutable nfree : int;
  dummy : 'a option;
  mutable created : int;
  mutable acquired : int;
  mutable released : int;
}

type pool_stats = {
  p_created : int;
  p_acquired : int;
  p_released : int;
  p_outstanding : int;
}

let blank ~state payload =
  { id = 0; arrival = 0.0; flow = 0; size = 0; payload; pool_state = state }

let pool ?(capacity = 0) ?dummy () =
  if capacity < 0 then invalid_arg "Msg.pool: negative capacity";
  let tag = Atomic.fetch_and_add next_pool_tag 1 in
  let prefill =
    match dummy with
    | Some d when capacity > 0 ->
      Array.init capacity (fun _ -> blank ~state:((2 * tag) + 1) d)
    | _ -> [||]
  in
  {
    tag;
    free = prefill;
    nfree = Array.length prefill;
    dummy;
    created = Array.length prefill;
    acquired = 0;
    released = 0;
  }

let acquire p ?(flow = 0) ~arrival ~size payload =
  let m =
    if p.nfree > 0 then begin
      p.nfree <- p.nfree - 1;
      p.free.(p.nfree)
    end
    else begin
      p.created <- p.created + 1;
      blank ~state:((2 * p.tag) + 1) payload
    end
  in
  m.id <- fresh_id ();
  m.arrival <- arrival;
  m.flow <- flow;
  m.size <- size;
  m.payload <- payload;
  m.pool_state <- 2 * p.tag;
  p.acquired <- p.acquired + 1;
  m

let release p m =
  let live = 2 * p.tag in
  if m.pool_state <> live then
    invalid_arg
      (if m.pool_state = live + 1 then "Msg.release: message already free"
       else if m.pool_state = heap_state then
         "Msg.release: not a pooled message"
       else "Msg.release: message owned by another pool");
  m.pool_state <- live + 1;
  (* Drop the payload reference when the pool knows a neutral value, so a
     recycled slot does not pin the previous payload. *)
  (match p.dummy with Some d -> m.payload <- d | None -> ());
  if p.nfree = Array.length p.free then begin
    let grown = Array.make (max 16 (2 * Array.length p.free)) m in
    Array.blit p.free 0 grown 0 p.nfree;
    p.free <- grown
  end;
  p.free.(p.nfree) <- m;
  p.nfree <- p.nfree + 1;
  p.released <- p.released + 1

let pool_stats p =
  {
    p_created = p.created;
    p_acquired = p.acquired;
    p_released = p.released;
    p_outstanding = p.acquired - p.released;
  }
