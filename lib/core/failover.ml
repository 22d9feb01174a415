type pending = {
  qids : int array;
  payload : int array;
  dst : int;
  home : int;
  mutable attempts : int;
  mutable sent_at : float;
}

let make_pending ~qids ~payload ~dst ~home ~now =
  { qids; payload; dst; home; attempts = 0; sent_at = now }

type t = {
  plan : Fault.Plan.t;
  timeout_ns : float;
  max_retries : int;
  dead : bool array;
  mutable retries : int;
  mutable redispatches : int;
  mutable lost_batches : int;
  mutable lost_queries : int;
  mutable fallback_lookups : int;
  mutable finish_at : float;
}

let create plan ~timeout_default ~nodes =
  {
    plan;
    timeout_ns = Fault.Plan.timeout_ns plan ~default:timeout_default;
    max_retries = Fault.Plan.retries plan;
    dead = Array.make nodes false;
    retries = 0;
    redispatches = 0;
    lost_batches = 0;
    lost_queries = 0;
    fallback_lookups = 0;
    finish_at = 0.0;
  }

let plan t = t.plan
let timeout_ns t = t.timeout_ns
let note_finish t ~now = if now > t.finish_at then t.finish_at <- now
let finish_at t = t.finish_at

let sweep t ~now ~in_flight ~resend ~redispatch =
  (* Collect-and-sort so the outcome does not depend on hash-table
     iteration order. *)
  let stale =
    Hashtbl.fold
      (fun id p acc ->
        if now -. p.sent_at >= t.timeout_ns then (id, p) :: acc else acc)
      in_flight []
  in
  let stale = List.sort (fun (a, _) (b, _) -> compare a b) stale in
  List.iter
    (fun (id, p) ->
      if (not t.dead.(p.dst)) && p.attempts < t.max_retries then begin
        p.attempts <- p.attempts + 1;
        p.sent_at <- now;
        t.retries <- t.retries + 1;
        resend id p
      end
      else begin
        t.dead.(p.dst) <- true;
        Hashtbl.remove in_flight id;
        t.redispatches <- t.redispatches + 1;
        redispatch id p
      end)
    stale

let note_fallback t n = t.fallback_lookups <- t.fallback_lookups + n

let note_lost t ~queries =
  t.lost_batches <- t.lost_batches + 1;
  t.lost_queries <- t.lost_queries + queries

let degraded t =
  let stats = Fault.Plan.stats t.plan in
  let dead_nodes = ref [] in
  for i = Array.length t.dead - 1 downto 0 do
    if t.dead.(i) then dead_nodes := i :: !dead_nodes
  done;
  {
    Run_result.retries = t.retries;
    redispatches = t.redispatches;
    lost_batches = t.lost_batches;
    lost_queries = t.lost_queries;
    fallback_lookups = t.fallback_lookups;
    dead_nodes = !dead_nodes;
    msgs_dropped = stats.Fault.Plan.dropped;
    msgs_duplicated = stats.Fault.Plan.duplicated;
    msgs_delayed = stats.Fault.Plan.delayed;
    msgs_blackholed = stats.Fault.Plan.blackholed;
  }
