open Simcore

let run (sc : Workload.Scenario.t) ~keys ~queries =
  let eng = Engine.create () in
  let m = Machine.create eng ~name:"worker" sc.Workload.Scenario.params in
  let tree =
    Machine.labelled m ~label:"partition" (fun () ->
        Index.Nary_tree.build m keys)
  in
  let n = Array.length queries in
  let q_base = Machine.labelled_alloc m ~label:"queries" n in
  let r_base = Machine.labelled_alloc m ~label:"results" n in
  Machine.poke_array m q_base queries;
  let lat = Latency.create () in
  Machine.set_phase m "lookup";
  let prof = Obs.Profile.current () in
  Engine.spawn eng ~name:"worker" (fun () ->
      for i = 0 to n - 1 do
        let before = Machine.busy_ns m in
        let stats0 =
          match prof with
          | Some _ -> Cachesim.Hierarchy.stats (Machine.hierarchy m)
          | None -> Cachesim.Hierarchy.zero_stats
        in
        let q = Machine.read m (q_base + i) in
        let rank = Index.Nary_tree.search tree q in
        Machine.write m (r_base + i) rank;
        let d = Machine.busy_ns m -. before in
        Latency.add lat d;
        (match prof with
        | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) d ->
            let ds =
              Cachesim.Hierarchy.sub_stats
                (Cachesim.Hierarchy.stats (Machine.hierarchy m))
                stats0
            in
            let mem =
              Cachesim.Hierarchy.stats_breakdown
                sc.Workload.Scenario.params ds
            in
            Obs.Tail.note (Obs.Profile.tail p) ~id:i ~ns:d ~batch:1
              ~breakdown:(("cpu", d -. ds.Cachesim.Hierarchy.cost_ns) :: mem)
        | Some _ | None -> ());
        (* Flush accumulated cost into the clock at a coarse grain to keep
           the event queue off the per-query hot path. *)
        if i land 8191 = 8191 then begin
          Machine.sync m;
          Machine.sample_residency m
        end
      done;
      Machine.sync m;
      Machine.sample_residency m);
  Engine.run eng;
  let errors = ref 0 in
  for i = 0 to n - 1 do
    if Machine.peek m (r_base + i) <> Index.Ref_impl.rank keys queries.(i) then
      incr errors
  done;
  let raw = Engine.now eng in
  let nodes = sc.Workload.Scenario.n_nodes in
  let total = raw /. float_of_int nodes in
  {
    Run_result.method_id = Methods.A;
    scenario = sc.Workload.Scenario.name;
    n_queries = n;
    n_nodes = nodes;
    batch_bytes = sc.Workload.Scenario.batch_bytes;
    total_ns = total;
    raw_ns = raw;
    per_key_ns = total /. float_of_int (max 1 n);
    slave_idle = 0.0;
    master_busy = 0.0;
    messages = 0;
    bytes_sent = 0;
    validation_errors = !errors;
    cache = (Telemetry.rollup ~raw [ [| m |] ]).Telemetry.cache;
    overflow_flushes = 0;
    mean_response_ns = Latency.mean lat;
    p95_response_ns = Latency.percentile lat 0.95;
    metrics =
      Telemetry.snapshot ~eng ~machines:[| m |] ~latency:lat
        ~validation_errors:!errors ();
    trace = None;
    profile = None;
    degraded = Run_result.no_degradation;
    serving = None;
    timeline = None;
    scope = None;
  }
