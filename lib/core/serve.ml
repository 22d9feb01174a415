type report = {
  run : Run_result.t;
  serving : Run_result.serving;
}

(* ------------------------------------------------------------------ *)
(* Workload: keys / per-arrival queries / admission timestamps.  Three
   independent splits of the scenario seed: the first matches
   [Runner.workload]'s key stream (identical index), the rest are new,
   so adding serving never perturbs the batch drivers' streams. *)

let effective (sc : Workload.Scenario.t) arrival =
  match sc.Workload.Scenario.offered_qps with
  | Some qps -> Workload.Arrival.scale_to arrival ~offered_qps:qps
  | None -> arrival

let generate_workload ?(updates = Workload.Mutation.none)
    (sc : Workload.Scenario.t) arrival =
  let g = Prng.Splitmix.create sc.Workload.Scenario.seed in
  let g_keys = Prng.Splitmix.split g in
  let _g_batch_queries = Prng.Splitmix.split g in
  let g_arrivals = Prng.Splitmix.split g in
  let g_queries = Prng.Splitmix.split g in
  (* Update stream: a dedicated fifth split, drawn after every existing
     one, so dynamic serving never perturbs the static streams. *)
  let g_updates = Prng.Splitmix.split g in
  let keys = Workload.Keygen.index_keys g_keys ~n:sc.Workload.Scenario.n_keys in
  let arrivals =
    Workload.Arrival.generate arrival
      ~seed:(Prng.Splitmix.bits30 g_arrivals)
      ~clients:sc.Workload.Scenario.clients
      ~duration_ns:sc.Workload.Scenario.duration_ns
  in
  let queries =
    Workload.Keygen.uniform_queries g_queries ~n:(Array.length arrivals)
  in
  let ops =
    if Workload.Mutation.is_none updates then [||]
    else
      Workload.Mutation.plan updates g_updates
        ~n_queries:(Array.length arrivals)
  in
  (keys, queries, arrivals, ops)

let workload ?updates sc ~arrival =
  generate_workload ?updates sc (effective sc arrival)

(* The first eighth of the horizon is the cold-start phase (caches
   filling, the initial burst draining): four windows of the default
   timeline. *)
let cold_until (sc : Workload.Scenario.t) =
  let d = sc.Workload.Scenario.duration_ns in
  if d > 0.0 then d /. 8.0 else 4e5

(* ------------------------------------------------------------------ *)
(* SLO rollup over the admission / service-start / delivery
   timestamps.  Quantiles are exact (nearest-rank over the sorted
   response array): serving runs are small enough that no sketch is
   needed, and golden CSVs want exactness.  Deliveries before
   [cold_until_ns] form the cold phase; their quantiles and the warm
   remainder's are reported separately. *)

let rank_index c p =
  min (c - 1) (max 0 (int_of_float (ceil (p *. float_of_int c)) - 1))

let exact_quantiles sorted =
  let c = Array.length sorted in
  let quantile p = if c = 0 then 0.0 else sorted.(rank_index c p) in
  (quantile 0.5, quantile 0.95, quantile 0.99)

(* Same nearest-rank quantiles without sorting: quickselect each index
   in place (the array is scratch).  Identical values to
   [exact_quantiles (Fsort.sort a; a)]. *)
let select_quantiles a =
  let c = Array.length a in
  let quantile p = if c = 0 then 0.0 else Fsort.select a (rank_index c p) in
  (quantile 0.5, quantile 0.95, quantile 0.99)

let rollup ~arrival ~slo_ns ~cold_until_ns ~(sc : Workload.Scenario.t)
    ~arrivals ~start_at ~done_at =
  let n = Array.length arrivals in
  let resp = Array.make (max 1 n) 0.0 in
  let cold = Array.make (max 1 n) 0.0 in
  let warm = Array.make (max 1 n) 0.0 in
  let completed = ref 0 in
  let n_cold = ref 0 in
  let n_warm = ref 0 in
  let queue_sum = ref 0.0 in
  let last_done = ref 0.0 in
  for i = 0 to n - 1 do
    if done_at.(i) >= 0.0 then begin
      let r = done_at.(i) -. arrivals.(i) in
      resp.(!completed) <- r;
      if done_at.(i) < cold_until_ns then begin
        cold.(!n_cold) <- r;
        incr n_cold
      end
      else begin
        warm.(!n_warm) <- r;
        incr n_warm
      end;
      queue_sum := !queue_sum +. (start_at.(i) -. arrivals.(i));
      if done_at.(i) > !last_done then last_done := done_at.(i);
      incr completed
    end
  done;
  let c = !completed in
  let sorted = Array.sub resp 0 c in
  Fsort.sort sorted;
  let p50, p95, p99 = exact_quantiles sorted in
  (* The cold/warm splits only ever surface as quantiles, so selection
     is enough — the k-th order statistic is the same value the full
     sort would put at index k.  [resp] stays fully sorted because its
     mean is a fold in ascending order and float addition is not
     associative. *)
  let cold_p50, cold_p95, cold_p99 =
    select_quantiles (Array.sub cold 0 !n_cold)
  in
  let warm_p50, warm_p95, warm_p99 =
    select_quantiles (Array.sub warm 0 !n_warm)
  in
  let over = ref 0 in
  Array.iter (fun r -> if r > slo_ns then incr over) sorted;
  let mean =
    if c = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 sorted /. float_of_int c
  in
  let duration_ns = sc.Workload.Scenario.duration_ns in
  {
    Run_result.arrival = Workload.Arrival.to_string arrival;
    offered_qps =
      (if duration_ns > 0.0 then float_of_int n *. 1e9 /. duration_ns else 0.0);
    duration_ns;
    arrived = n;
    completed = c;
    achieved_qps =
      (if !last_done > 0.0 then float_of_int c *. 1e9 /. !last_done else 0.0);
    mean_queue_ns = (if c = 0 then 0.0 else !queue_sum /. float_of_int c);
    mean_ns = mean;
    p50_ns = p50;
    p95_ns = p95;
    p99_ns = p99;
    max_ns = (if c = 0 then 0.0 else sorted.(c - 1));
    slo_ns;
    violations = !over + (n - c);
    cold_until_ns;
    cold_completed = !n_cold;
    cold_p50_ns = cold_p50;
    cold_p95_ns = cold_p95;
    cold_p99_ns = cold_p99;
    warm_completed = !n_warm;
    warm_p50_ns = warm_p50;
    warm_p95_ns = warm_p95;
    warm_p99_ns = warm_p99;
  }

(* ------------------------------------------------------------------ *)

let check ~method_id ~ops =
  if Array.length ops > 0 && Methods.is_distributed method_id then
    Error
      "--updates is supported for methods A and B only (use `repro \
       ablation updates` for the C family)"
  else Ok ()

let run_method ?faults ?(observe = Observe.none)
    ?(updates = Workload.Mutation.none) ?(ops = [||]) (sc : Workload.Scenario.t)
    ~arrival ~slo_ns ~method_id ~keys ~queries ~arrivals =
  let n = Array.length arrivals in
  let start_at = Array.make (max 1 n) 0.0 in
  let done_at = Array.make (max 1 n) (-1.0) in
  let cold_until_ns = cold_until sc in
  let finish () =
    rollup ~arrival ~slo_ns ~cold_until_ns ~sc ~arrivals ~start_at ~done_at
  in
  let series =
    Observe.series observe ~slo_ns ~horizon_ns:sc.Workload.Scenario.duration_ns
  in
  Result.iter_error
    (fun msg -> invalid_arg ("Serve: " ^ msg))
    (check ~method_id ~ops);
  let source = Method_c.Serve { arrivals; start_at; done_at; series } in
  let drive () =
    (* Pin the fault plan's scheduled events to the timeline before the
       run: a crash or slow node is knowable from the spec, so the event
       lane carries the cause next to the windows showing the effect. *)
    (match (series, faults) with
    | Some b, Some spec
      when Methods.is_distributed method_id && not (Fault.Spec.is_none spec)
      ->
        List.iter
          (fun (node, at) ->
            Obs.Series.note_event b ~at
              ~label:(Printf.sprintf "crash:node=%d" node))
          spec.Fault.Spec.crashes;
        List.iter
          (fun (node, _factor) ->
            Obs.Series.note_event b ~at:0.0
              ~label:(Printf.sprintf "slow:node=%d" node))
          spec.Fault.Spec.slow
    | _ -> ());
    let ops =
      if Array.length ops = 0 then Method_c.Queries
      else
        Method_c.Updates
          {
            ops;
            policy = Workload.Mutation.policy updates;
            counters = (fun _ ~lost_updates:_ -> []);
          }
    in
    let r = Runner.drive ?faults sc ~source ~ops ~method_id ~keys ~queries in
    { r with Run_result.serving = Some (finish ()) }
  in
  let run =
    Observe.record
      ?serving:
        (Option.map
           (fun series -> { Observe.series; arrivals; done_at })
           series)
      observe drive
  in
  match run.Run_result.serving with
  | Some serving -> { run; serving }
  | None -> assert false

let render ~(scenario : Workload.Scenario.t) reports =
  let tbl = Report.Table.create ~headers:Run_result.serving_header in
  List.iter
    (fun { run; serving } ->
      Report.Table.add_row tbl (Run_result.serving_cells run serving))
    reports;
  let slo =
    match reports with [] -> 0.0 | r :: _ -> r.serving.Run_result.slo_ns
  in
  Printf.sprintf
    "Online serving: %s, %d clients over a %s horizon, SLO %s\n\n%s"
    scenario.Workload.Scenario.name scenario.Workload.Scenario.clients
    (Simcore.Simtime.to_string scenario.Workload.Scenario.duration_ns)
    (Simcore.Simtime.to_string slo)
    (Report.Table.render tbl)

let csv_lines reports =
  String.concat "," Run_result.serving_header
  :: List.map
       (fun { run; serving } ->
         String.concat "," (Run_result.serving_cells run serving))
       reports
