type degraded = {
  retries : int;
  redispatches : int;
  lost_batches : int;
  lost_queries : int;
  fallback_lookups : int;
  dead_nodes : int list;
  msgs_dropped : int;
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_blackholed : int;
}

let no_degradation =
  {
    retries = 0;
    redispatches = 0;
    lost_batches = 0;
    lost_queries = 0;
    fallback_lookups = 0;
    dead_nodes = [];
    msgs_dropped = 0;
    msgs_duplicated = 0;
    msgs_delayed = 0;
    msgs_blackholed = 0;
  }

let is_degraded d = d <> no_degradation

type serving = {
  arrival : string;
  offered_qps : float;
  duration_ns : float;
  arrived : int;
  completed : int;
  achieved_qps : float;
  mean_queue_ns : float;
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;
  slo_ns : float;
  violations : int;
  cold_until_ns : float;
  cold_completed : int;
  cold_p50_ns : float;
  cold_p95_ns : float;
  cold_p99_ns : float;
  warm_completed : int;
  warm_p50_ns : float;
  warm_p95_ns : float;
  warm_p99_ns : float;
}

type t = {
  method_id : Methods.id;
  scenario : string;
  n_queries : int;
  n_nodes : int;
  batch_bytes : int;
  total_ns : float;
  raw_ns : float;
  per_key_ns : float;
  slave_idle : float;
  master_busy : float;
  messages : int;
  bytes_sent : int;
  validation_errors : int;
  cache : Cachesim.Hierarchy.stats;
  overflow_flushes : int;
  mean_response_ns : float;
  p95_response_ns : float;
  metrics : Obs.Metrics.Snapshot.t;
  trace : Simcore.Trace.t option;
  profile : Obs.Profile.t option;
  degraded : degraded;
  serving : serving option;
  timeline : Obs.Series.t option;
  scope : Obs.Cachescope.t option;
}

let per_key_ns t = t.per_key_ns

let violation_rate (s : serving) =
  if s.arrived = 0 then 0.0
  else float_of_int s.violations /. float_of_int s.arrived

let serving_header =
  [
    "method"; "scenario"; "arrival"; "offered_qps"; "duration_ns"; "arrived";
    "completed"; "achieved_qps"; "mean_queue_ns"; "mean_response_ns";
    "p50_ns"; "p95_ns"; "p99_ns"; "max_ns"; "slo_ns"; "violations";
    "violation_rate"; "messages"; "master_busy"; "slave_idle";
    "cold_until_ns"; "cold_completed"; "cold_p50_ns"; "cold_p95_ns";
    "cold_p99_ns"; "warm_completed"; "warm_p50_ns"; "warm_p95_ns";
    "warm_p99_ns";
  ]

let serving_cells t (s : serving) =
  [
    Methods.to_string t.method_id;
    t.scenario;
    s.arrival;
    Printf.sprintf "%.1f" s.offered_qps;
    Printf.sprintf "%.0f" s.duration_ns;
    string_of_int s.arrived;
    string_of_int s.completed;
    Printf.sprintf "%.1f" s.achieved_qps;
    Printf.sprintf "%.1f" s.mean_queue_ns;
    Printf.sprintf "%.1f" s.mean_ns;
    Printf.sprintf "%.1f" s.p50_ns;
    Printf.sprintf "%.1f" s.p95_ns;
    Printf.sprintf "%.1f" s.p99_ns;
    Printf.sprintf "%.1f" s.max_ns;
    Printf.sprintf "%.0f" s.slo_ns;
    string_of_int s.violations;
    Printf.sprintf "%.6f" (violation_rate s);
    string_of_int t.messages;
    Printf.sprintf "%.4f" t.master_busy;
    Printf.sprintf "%.4f" t.slave_idle;
    Printf.sprintf "%.0f" s.cold_until_ns;
    string_of_int s.cold_completed;
    Printf.sprintf "%.1f" s.cold_p50_ns;
    Printf.sprintf "%.1f" s.cold_p95_ns;
    Printf.sprintf "%.1f" s.cold_p99_ns;
    string_of_int s.warm_completed;
    Printf.sprintf "%.1f" s.warm_p50_ns;
    Printf.sprintf "%.1f" s.warm_p95_ns;
    Printf.sprintf "%.1f" s.warm_p99_ns;
  ]

let completeness t =
  if t.n_queries = 0 then 1.0
  else
    float_of_int (t.n_queries - t.degraded.lost_queries)
    /. float_of_int t.n_queries
let throughput_mqs t = if t.per_key_ns = 0.0 then 0.0 else 1e3 /. t.per_key_ns
let scaled_total_s t ~queries = t.per_key_ns *. float_of_int queries /. 1e9

let header =
  [
    "method"; "scenario"; "queries"; "nodes"; "batch_bytes"; "total_ns";
    "per_key_ns"; "slave_idle"; "master_busy"; "messages"; "bytes";
    "validation_errors"; "mean_response_ns"; "p95_response_ns";
  ]

let to_cells t =
  [
    Methods.to_string t.method_id;
    t.scenario;
    string_of_int t.n_queries;
    string_of_int t.n_nodes;
    string_of_int t.batch_bytes;
    Printf.sprintf "%.0f" t.total_ns;
    Printf.sprintf "%.2f" t.per_key_ns;
    Printf.sprintf "%.4f" t.slave_idle;
    Printf.sprintf "%.4f" t.master_busy;
    string_of_int t.messages;
    string_of_int t.bytes_sent;
    string_of_int t.validation_errors;
    Printf.sprintf "%.0f" t.mean_response_ns;
    Printf.sprintf "%.0f" t.p95_response_ns;
  ]

(* Kept separate from [header]/[to_cells] so fault-free CSV output stays
   byte-identical; drivers append these columns only when a fault plan
   was active. *)
let degraded_header =
  [
    "retries"; "redispatches"; "lost_batches"; "lost_queries";
    "fallback_lookups"; "dead_nodes"; "msgs_dropped"; "msgs_duplicated";
    "msgs_delayed"; "msgs_blackholed"; "completeness";
  ]

let degraded_cells t =
  let d = t.degraded in
  [
    string_of_int d.retries;
    string_of_int d.redispatches;
    string_of_int d.lost_batches;
    string_of_int d.lost_queries;
    string_of_int d.fallback_lookups;
    String.concat ";" (List.map string_of_int d.dead_nodes);
    string_of_int d.msgs_dropped;
    string_of_int d.msgs_duplicated;
    string_of_int d.msgs_delayed;
    string_of_int d.msgs_blackholed;
    Printf.sprintf "%.6f" (completeness t);
  ]
