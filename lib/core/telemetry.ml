(* Central harvest point: every method driver builds its per-run metrics
   registry here, so series names and label conventions stay uniform
   across Methods A..C-3 and the hierarchical variant. *)

let snapshot ~eng ?net ~machines ~latency ~validation_errors ?(counters = [])
    ?degraded () =
  let reg = Obs.Metrics.create () in
  Simcore.Engine.record_metrics eng reg;
  Array.iter (fun m -> Machine.record_metrics m reg) machines;
  (match net with
  | Some net -> Netsim.Network.record_metrics net reg
  | None -> ());
  Obs.Metrics.observe_hist reg "response_ns" (Latency.histogram latency);
  Obs.Metrics.incr reg "validation_errors" validation_errors;
  (* Driver-private counters (the dynamic-index drivers' update/segment
     accounting).  Static runs pass none, so their snapshots are
     unchanged. *)
  List.iter (fun (k, v) -> Obs.Metrics.incr_f reg k v) counters;
  (* Failover counters appear only for fault-injected runs, so
     fault-free metrics files stay byte-identical.  (The network's
     injection counters are emitted by Network.record_metrics above,
     under the same rule.) *)
  (match degraded with
  | None -> ()
  | Some (d : Run_result.degraded) ->
      Obs.Metrics.incr reg "failover_retries" d.Run_result.retries;
      Obs.Metrics.incr reg "failover_redispatches" d.Run_result.redispatches;
      Obs.Metrics.incr reg "failover_lost_batches" d.Run_result.lost_batches;
      Obs.Metrics.incr reg "failover_lost_queries" d.Run_result.lost_queries;
      Obs.Metrics.incr reg "failover_fallback_lookups"
        d.Run_result.fallback_lookups;
      Obs.Metrics.incr reg "failover_dead_nodes"
        (List.length d.Run_result.dead_nodes));
  Obs.Metrics.snapshot reg

type rollup = {
  cache : Cachesim.Hierarchy.stats;
  busy : float;
  idle : float;
}

let rollup ~raw groups =
  let sum ms =
    Array.fold_left
      (fun acc m ->
        Cachesim.Hierarchy.add_stats acc
          (Cachesim.Hierarchy.stats (Machine.hierarchy m)))
      Cachesim.Hierarchy.zero_stats ms
  in
  let mean f ms =
    Array.fold_left (fun acc m -> acc +. f (Machine.busy_ns m /. raw)) 0.0 ms
    /. float_of_int (Array.length ms)
  in
  {
    cache =
      List.fold_right
        (fun g acc -> Cachesim.Hierarchy.add_stats (sum g) acc)
        groups Cachesim.Hierarchy.zero_stats;
    busy = mean Fun.id (List.hd groups);
    idle = mean (fun b -> 1.0 -. b) (List.nth groups (List.length groups - 1));
  }

let run_label (r : Run_result.t) =
  Printf.sprintf "%s %s batch=%dKB"
    (Methods.to_string r.Run_result.method_id)
    r.Run_result.scenario
    (r.Run_result.batch_bytes / 1024)

(* Host-side wall-clock stats are real time, hence nondeterministic.
   They are dropped at the collection point under SOURCE_DATE_EPOCH —
   not just filtered by Manifest.to_json — so every emitter (batch
   sweeps and the long-running serve driver alike) produces
   byte-comparable files across runs and worker counts. *)
let host_fields () =
  let s = Exec.host_stats () in
  if s.Exec.batches = 0 || Obs.Manifest.reproducible () then []
  else
    [
      ("pool_batches", Obs.Json.Int s.Exec.batches);
      ("pool_tasks", Obs.Json.Int s.Exec.tasks);
      ("pool_task_wall_s", Obs.Json.Float s.Exec.task_wall_s);
      ("pool_batch_wall_s", Obs.Json.Float s.Exec.batch_wall_s);
      ("pool_max_task_wall_s", Obs.Json.Float s.Exec.max_task_wall_s);
      ("pool_max_workers", Obs.Json.Int s.Exec.max_workers);
    ]

(* Note no [jobs] field: worker count is host execution provenance, not
   a simulation input (results are byte-identical at any value), so it
   lives in the host block via [pool_max_workers] and the metrics file
   diffs clean across --jobs values. *)
let manifest_fields ?faults (sc : Workload.Scenario.t) ~methods ~batches =
  (match faults with
  | Some spec when not (Fault.Spec.is_none spec) ->
      [ ("faults", Obs.Json.String (Fault.Spec.to_string spec)) ]
  | _ -> [])
  @ [
    ("scenario", Obs.Json.String sc.Workload.Scenario.name);
    ("seed", Obs.Json.Int sc.Workload.Scenario.seed);
    ("n_keys", Obs.Json.Int sc.Workload.Scenario.n_keys);
    ("n_queries", Obs.Json.Int sc.Workload.Scenario.n_queries);
    ("n_nodes", Obs.Json.Int sc.Workload.Scenario.n_nodes);
    ("network", Obs.Json.String sc.Workload.Scenario.net.Netsim.Profile.name);
    ( "methods",
      Obs.Json.List
        (List.map (fun m -> Obs.Json.String (Methods.to_string m)) methods) );
    ("batches", Obs.Json.List (List.map (fun b -> Obs.Json.Int b) batches));
  ]

let runs_document ~generator ~fields ~key runs =
  let manifest = Obs.Manifest.create ~generator ~host:(host_fields ()) fields in
  Obs.Json.Obj
    [
      ("manifest", Obs.Manifest.to_json manifest);
      ( "runs",
        Obs.Json.List
          (List.map
             (fun (label, reading) ->
               Obs.Json.Obj [ ("run", Obs.Json.String label); (key, reading) ])
             runs) );
    ]

let write_json path json =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string json))
