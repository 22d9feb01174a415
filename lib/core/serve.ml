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

(* ------------------------------------------------------------------ *)
(* Timeline windowing.  The default splits the serving horizon into 32
   windows; --timeline-window overrides the width.  The cold/warm
   split rides on the same grid: the first four windows are the
   cold-start phase (caches filling, the initial burst draining). *)

let default_windows = 32

let effective_window_ns (sc : Workload.Scenario.t) ~timeline_window_ns =
  match timeline_window_ns with
  | Some w -> w
  | None ->
      let d = sc.Workload.Scenario.duration_ns in
      if d > 0.0 then d /. float_of_int default_windows else 1e5

let cold_windows = 4

let cold_until (sc : Workload.Scenario.t) ~timeline_window_ns =
  float_of_int cold_windows
  *. effective_window_ns sc ~timeline_window_ns

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

let run_method ?faults ?(timeline = false) ?timeline_window_ns ?(jobs = 1)
    ?(updates = Workload.Mutation.none) ?(ops = [||])
    (sc : Workload.Scenario.t) ~arrival ~slo_ns ~method_id ~keys ~queries
    ~arrivals =
  let n = Array.length arrivals in
  let start_at = Array.make (max 1 n) 0.0 in
  let done_at = Array.make (max 1 n) (-1.0) in
  let cold_until_ns = cold_until sc ~timeline_window_ns in
  let finish () =
    rollup ~arrival ~slo_ns ~cold_until_ns ~sc ~arrivals ~start_at ~done_at
  in
  let series =
    if not timeline then None
    else
      Some
        (Obs.Series.builder
           ~window_ns:(effective_window_ns sc ~timeline_window_ns)
           ~slo_ns ~horizon_ns:sc.Workload.Scenario.duration_ns ())
  in
  if Array.length ops > 0 && method_id <> Methods.A then
    invalid_arg
      "Serve: --updates is supported for method A only (use `repro \
       ablation updates` for the batch methods)";
  let source = Method_c.Serve { arrivals; start_at; done_at; series } in
  let drive () =
    let o =
      match (method_id : Methods.id) with
      | Methods.A | Methods.B ->
          Replicated.drive ~jobs sc ~source
            ~ops:
              (if Array.length ops = 0 then Method_c.Queries
               else
                 Method_c.Updates
                   {
                     ops;
                     policy = Workload.Mutation.policy updates;
                     counters = (fun _ ~lost_updates:_ -> []);
                   })
            ~method_id ~keys ~queries
      | Methods.C1 | Methods.C2 | Methods.C3 ->
          (* Pin the fault plan's scheduled events to the timeline before
             the run: a crash or slow node is knowable from the spec, so
             the event lane carries the cause next to the windows
             showing the effect. *)
          (match (series, faults) with
          | Some b, Some spec when not (Fault.Spec.is_none spec) ->
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
          Method_c.drive ~faults sc ~source ~ops:Method_c.Queries
            ~topology:Method_c.Flat ~variant:method_id ~keys ~queries
    in
    { o.Method_c.run with Run_result.serving = Some (finish ()) }
  in
  let run =
    match series with
    | None -> drive ()
    | Some b ->
        (* Per-node busy time comes from the machines' sync spans: use
           the caller's ambient recorder when one is installed (so
           --trace-json still sees the whole run), else record
           privately for the harvest. *)
        let tr, drive =
          match Simcore.Trace.current () with
          | Some tr -> (tr, drive)
          | None ->
              let tr = Simcore.Trace.create () in
              (tr, fun () -> Simcore.Trace.with_recording tr drive)
        in
        let run = drive () in
        List.iter
          (fun (s : Simcore.Trace.span) ->
            if s.Simcore.Trace.label = "busy" then
              Obs.Series.note_busy b ~lane:s.Simcore.Trace.lane
                ~t0:s.Simcore.Trace.t0 ~t1:s.Simcore.Trace.t1)
          (Simcore.Trace.spans tr);
        (* Arrivals and deliveries are replayed from the timestamp
           arrays after the run: simulated-time data only, so the
           series is identical at any worker count.  Losses were noted
           live (their timing only exists at the failover decision). *)
        Array.iteri
          (fun i at ->
            Obs.Series.note_arrival b ~at;
            if done_at.(i) >= 0.0 then
              Obs.Series.note_delivery b ~arrived:at ~finished:done_at.(i))
          arrivals;
        (* When the cache microscope is on, replay each node's L2
           partition-residency samples as gauge lanes so the timeline
           shows the index being evicted (and re-warmed) in place. *)
        (match Obs.Cachescope.current () with
        | Some sc ->
            List.iter
              (fun node ->
                let lane =
                  "resid:" ^ Obs.Cachescope.node_name node
                in
                List.iter
                  (fun (at, readings) ->
                    Array.iter
                      (fun (level, region, frac) ->
                        if level = "L2" && region = "partition" then
                          Obs.Series.note_gauge b ~lane ~at frac)
                      readings)
                  (Obs.Cachescope.samples node))
              (Obs.Cachescope.nodes sc)
        | None -> ());
        { run with Run_result.timeline = Some (Obs.Series.finish b) }
  in
  match run.Run_result.serving with
  | Some serving -> { run; serving }
  | None -> assert false

(* One spec-driven serving run with the spec's recorders (trace,
   profile, timeline) installed — the body every job of [run] and
   [load_sweep] executes. *)
let run_method_spec (spec : Experiment.Spec.t) sc ~arrival ~method_id ~keys
    ~queries ~arrivals ~ops =
  let run =
    Experiment.with_run_instrumented spec (fun () ->
        (run_method ~faults:spec.Experiment.Spec.faults
           ~timeline:(Experiment.Spec.timelining spec)
           ?timeline_window_ns:spec.Experiment.Spec.timeline_window_ns
           ~jobs:spec.Experiment.Spec.jobs
           ~updates:spec.Experiment.Spec.updates ~ops sc
           ~arrival ~slo_ns:spec.Experiment.Spec.slo_ns ~method_id ~keys
           ~queries ~arrivals)
          .run)
  in
  match run.Run_result.serving with
  | Some serving -> { run; serving }
  | None -> assert false

let run (spec : Experiment.Spec.t) =
  let sc = Experiment.Spec.scenario spec in
  let arrival = effective sc spec.Experiment.Spec.arrival in
  let keys, queries, arrivals, ops =
    generate_workload ~updates:spec.Experiment.Spec.updates sc arrival
  in
  List.map snd
    (Exec.Sweep.run ~jobs:spec.Experiment.Spec.jobs
       (List.map
          (fun method_id ->
            Exec.Job.make ~key:method_id (fun () ->
                run_method_spec spec sc ~arrival ~method_id ~keys ~queries
                  ~arrivals ~ops))
          spec.Experiment.Spec.methods))

let load_sweep (spec : Experiment.Spec.t) ~loads =
  let sc0 = Experiment.Spec.scenario spec in
  (* Workloads are generated once per load, sequentially, then shared
     read-only by that load's method jobs — the same purity argument as
     [Experiment.fig3]'s grid. *)
  let per_load =
    List.map
      (fun qps ->
        let sc = Workload.Scenario.with_offered_load qps sc0 in
        let arrival = effective sc spec.Experiment.Spec.arrival in
        let keys, queries, arrivals, ops =
          generate_workload ~updates:spec.Experiment.Spec.updates sc arrival
        in
        (sc, arrival, keys, queries, arrivals, ops))
      loads
  in
  let grid =
    List.concat_map
      (fun cell ->
        List.map (fun method_id -> (cell, method_id)) spec.Experiment.Spec.methods)
      per_load
  in
  List.map snd
    (Exec.Sweep.run ~jobs:spec.Experiment.Spec.jobs
       (List.mapi
          (fun i ((sc, arrival, keys, queries, arrivals, ops), method_id) ->
            Exec.Job.make ~key:i (fun () ->
                run_method_spec spec sc ~arrival ~method_id ~keys ~queries
                  ~arrivals ~ops))
          grid))

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

(* ------------------------------------------------------------------ *)
(* Timeline export and rendering *)

let master_lane lane =
  String.length lane >= 6 && String.sub lane 0 6 = "master"

(* Events pinned to window [i]: at in [t0, t1), with anything at or
   past the final boundary clamped into the last window so a crash
   scheduled exactly at the horizon still shows. *)
let window_events (t : Obs.Series.t) i =
  let n = Array.length t.Obs.Series.windows in
  List.filter
    (fun (e : Obs.Series.event) ->
      let j =
        min (n - 1)
          (max 0 (int_of_float (Float.floor (e.at_ns /. t.Obs.Series.window_ns))))
      in
      j = i)
    t.Obs.Series.events

let timeline_header =
  [
    "method"; "scenario"; "window"; "t0_ns"; "t1_ns"; "offered"; "completed";
    "offered_qps"; "achieved_qps"; "mean_ns"; "p50_ns"; "p95_ns"; "p99_ns";
    "queue_depth"; "master_busy_frac"; "slave_busy_frac"; "violations";
    "burn_rate"; "retries"; "redispatches"; "lost"; "fallbacks"; "events";
  ]

let timeline_rows { run; serving = _ } =
  match run.Run_result.timeline with
  | None -> []
  | Some t ->
      let lanes = Obs.Series.lanes t in
      let masters = List.filter master_lane lanes in
      let slaves = List.filter (fun l -> not (master_lane l)) lanes in
      (* Busy fraction of a node class inside one window: summed busy
         nanoseconds over (window width x class size). *)
      let class_frac (w : Obs.Series.window) cls =
        match cls with
        | [] -> 0.0
        | _ ->
            List.fold_left
              (fun acc lane ->
                acc +. try List.assoc lane w.Obs.Series.busy with Not_found -> 0.0)
              0.0 cls
            /. (t.Obs.Series.window_ns *. float_of_int (List.length cls))
      in
      Array.to_list
        (Array.map
           (fun (w : Obs.Series.window) ->
             let p50, p95, p99 = Obs.Hist.quantiles w.Obs.Series.latency in
             [
               Methods.to_string run.Run_result.method_id;
               run.Run_result.scenario;
               string_of_int w.Obs.Series.index;
               Printf.sprintf "%.0f" w.Obs.Series.t0_ns;
               Printf.sprintf "%.0f" w.Obs.Series.t1_ns;
               string_of_int w.Obs.Series.offered;
               string_of_int w.Obs.Series.completed;
               Printf.sprintf "%.1f" (Obs.Series.offered_qps t w);
               Printf.sprintf "%.1f" (Obs.Series.achieved_qps t w);
               Printf.sprintf "%.1f" (Obs.Hist.mean w.Obs.Series.latency);
               Printf.sprintf "%.1f" p50;
               Printf.sprintf "%.1f" p95;
               Printf.sprintf "%.1f" p99;
               string_of_int w.Obs.Series.queue_depth;
               Printf.sprintf "%.4f" (class_frac w masters);
               Printf.sprintf "%.4f" (class_frac w slaves);
               string_of_int w.Obs.Series.violations;
               Printf.sprintf "%.4f" (Obs.Series.burn_rate t w);
               string_of_int w.Obs.Series.retries;
               string_of_int w.Obs.Series.redispatches;
               string_of_int w.Obs.Series.lost;
               string_of_int w.Obs.Series.fallbacks;
               String.concat ";"
                 (List.map
                    (fun (e : Obs.Series.event) -> e.Obs.Series.label)
                    (window_events t w.Obs.Series.index));
             ])
           t.Obs.Series.windows)

let timeline_csv_lines reports =
  String.concat "," timeline_header
  :: List.concat_map
       (fun r -> List.map (String.concat ",") (timeline_rows r))
       reports

let render_timeline reports =
  let buf = Buffer.create 4096 in
  List.iter
    (fun { run; serving = _ } ->
      match run.Run_result.timeline with
      | None -> ()
      | Some t ->
          let ws = t.Obs.Series.windows in
          let metric f = Array.map f ws in
          let qd =
            metric (fun (w : Obs.Series.window) ->
                float_of_int w.Obs.Series.queue_depth)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "method %s timeline: %d windows of %s%s\n"
               (Methods.to_string run.Run_result.method_id)
               (Array.length ws)
               (Simcore.Simtime.to_string t.Obs.Series.window_ns)
               (match Obs.Series.knee t with
               | None -> ""
               | Some k ->
                   Printf.sprintf ", saturation knee at window %d" k));
          List.iter
            (fun (label, values) ->
              Buffer.add_string buf (Report.Ascii_plot.heat_row ~label values);
              Buffer.add_char buf '\n')
            [
              ("offered_qps", metric (Obs.Series.offered_qps t));
              ("achieved_qps", metric (Obs.Series.achieved_qps t));
              ( "p95_ns",
                metric (fun (w : Obs.Series.window) ->
                    Obs.Hist.quantile w.Obs.Series.latency 0.95) );
              ("queue_depth", qd);
              ("burn_rate", metric (Obs.Series.burn_rate t));
            ];
          (* One heat row per node lane, all on a shared 0..window scale
             so master saturation reads against slave idleness. *)
          List.iter
            (fun lane ->
              let busy =
                metric (fun (w : Obs.Series.window) ->
                    try List.assoc lane w.Obs.Series.busy
                    with Not_found -> 0.0)
              in
              Buffer.add_string buf
                (Report.Ascii_plot.heat_row ~label:("busy " ^ lane) ~v_min:0.0
                   ~v_max:t.Obs.Series.window_ns busy);
              Buffer.add_char buf '\n')
            (Obs.Series.lanes t);
          (* Coalesce consecutive same-label events (a redispatch storm
             is one line with a count, not one line per batch). *)
          let rec emit = function
            | [] -> ()
            | (e : Obs.Series.event) :: rest ->
                let same, rest =
                  let rec split acc = function
                    | (x : Obs.Series.event) :: tl
                      when x.Obs.Series.label = e.Obs.Series.label ->
                        split (acc + 1) tl
                    | tl -> (acc, tl)
                  in
                  split 0 rest
                in
                Buffer.add_string buf
                  (Printf.sprintf "  event @ %s: %s%s\n"
                     (Simcore.Simtime.to_string e.Obs.Series.at_ns)
                     e.Obs.Series.label
                     (if same = 0 then ""
                      else Printf.sprintf " (x%d)" (same + 1)));
                emit rest
          in
          emit t.Obs.Series.events;
          Buffer.add_char buf '\n')
    reports;
  Buffer.contents buf
