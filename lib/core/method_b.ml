open Simcore

let run (sc : Workload.Scenario.t) ~keys ~queries =
  let eng = Engine.create () in
  let m = Machine.create eng ~name:"worker" sc.Workload.Scenario.params in
  let tree =
    Machine.labelled m ~label:"partition" (fun () ->
        Index.Nary_tree.build m keys)
  in
  let batch_keys = Workload.Scenario.queries_per_batch sc in
  let buffered = Index.Buffered.create ~max_batch:batch_keys tree in
  let n = Array.length queries in
  let q_base = Machine.labelled_alloc m ~label:"queries" n in
  let r_base = Machine.labelled_alloc m ~label:"results" n in
  Machine.poke_array m q_base queries;
  let lat = Latency.create () in
  Machine.set_phase m "lookup";
  let prof = Obs.Profile.current () in
  Engine.spawn eng ~name:"worker" (fun () ->
      let off = ref 0 in
      while !off < n do
        let len = min batch_keys (n - !off) in
        let started = Engine.now eng in
        let busy0 = Machine.busy_ns m in
        let stats0 =
          match prof with
          | Some _ -> Cachesim.Hierarchy.stats (Machine.hierarchy m)
          | None -> Cachesim.Hierarchy.zero_stats
        in
        Index.Buffered.process_batch buffered ~queries:(q_base + !off)
          ~results:(r_base + !off) ~n:len;
        Machine.sync m;
        Machine.sample_residency m;
        (* Every query of the batch waits for the whole batch: residence
           time = batch processing duration. *)
        let resp = Engine.now eng -. started in
        Latency.add_many lat resp len;
        (match prof with
        | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) resp ->
            let ds =
              Cachesim.Hierarchy.sub_stats
                (Cachesim.Hierarchy.stats (Machine.hierarchy m))
                stats0
            in
            let mem =
              Cachesim.Hierarchy.stats_breakdown
                sc.Workload.Scenario.params ds
            in
            let cpu =
              Machine.busy_ns m -. busy0 -. ds.Cachesim.Hierarchy.cost_ns
            in
            Obs.Tail.note (Obs.Profile.tail p) ~id:!off ~ns:resp ~batch:len
              ~breakdown:(("cpu", cpu) :: mem)
        | Some _ | None -> ());
        off := !off + len
      done);
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
    Run_result.method_id = Methods.B;
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
    overflow_flushes = Index.Buffered.overflow_flushes buffered;
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
