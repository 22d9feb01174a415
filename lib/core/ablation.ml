open Experiment

let kib n = n * 1024

(* A table with one row per element of [xs]: partially applied, the
   [collect] of a grid. *)
let table headers row xs =
  let t = Report.Table.create ~headers in
  Report.Table.add_rows t (List.map row xs);
  t

let batch_overhead
    ?(batches = [ kib 8; kib 32; kib 128; kib 512; kib 2048; kib 4096 ])
    (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, queries = Runner.workload sc in
  {
    cells =
      List.map
        (fun batch ->
          cell (Workload.Scenario.with_batch sc batch) ~keys ~queries
            Methods.C3)
        batches;
    collect =
      table [ "Batch"; "C-3 ns/key"; "slave idle"; "master busy"; "messages" ]
        (fun (c, r) ->
          [
            Printf.sprintf "%d KB"
              (c.scenario.Workload.Scenario.batch_bytes / 1024);
            Report.Table.cell_f r.Run_result.per_key_ns;
            Report.Table.cell_pct r.Run_result.slave_idle;
            Report.Table.cell_pct r.Run_result.master_busy;
            string_of_int r.Run_result.messages;
          ]);
  }

let network (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, queries = Runner.workload sc in
  let batches = [ kib 8; kib 64; kib 256; kib 1024 ] in
  cross
    ~rows:
      [ Netsim.Profile.myrinet; Netsim.Profile.gigabit_ethernet;
        Netsim.Profile.fast_ethernet ]
    ~cols:batches
    (fun profile batch ->
      cell ~axes:[ Net ]
        (Workload.Scenario.with_net profile
           (Workload.Scenario.with_batch sc batch))
        ~keys ~queries Methods.C3)
    (table
       ("Network"
       :: List.map (fun b -> Printf.sprintf "%d KB ns/key" (b / 1024)) batches)
       (fun ((profile : Netsim.Profile.t), results) ->
         profile.Netsim.Profile.name
         :: List.map
              (fun r -> Report.Table.cell_f r.Run_result.per_key_ns)
              results))

let skew ?(exponents = [ 0.0; 0.5; 1.0 ]) (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let g = Prng.Splitmix.create (sc.Workload.Scenario.seed + 17) in
  let keys =
    Workload.Keygen.index_keys (Prng.Splitmix.split g)
      ~n:sc.Workload.Scenario.n_keys
  in
  (* Query streams are derived by splitting [g] once per exponent, in
     order, before any job runs — workers never touch a shared PRNG. *)
  let streams =
    List.map
      (fun s ->
        let gq = Prng.Splitmix.split g in
        let queries =
          if s = 0.0 then
            Workload.Keygen.uniform_queries gq
              ~n:sc.Workload.Scenario.n_queries
          else
            Workload.Keygen.zipf_queries gq ~keys
              ~n:sc.Workload.Scenario.n_queries ~s
        in
        (s, queries))
      exponents
  in
  cross ~rows:streams ~cols:[ Methods.C3; Methods.B ]
    (fun (s, queries) -> cell ~axes:[ Zipf s ] sc ~keys ~queries)
    (table [ "Zipf s"; "C-3 ns/key"; "slave idle"; "B ns/key" ]
       (fun ((s, _), results) ->
         let rc = List.nth results 0 and rb = List.nth results 1 in
         [
           Printf.sprintf "%.1f" s;
           Report.Table.cell_f rc.Run_result.per_key_ns;
           Report.Table.cell_pct rc.Run_result.slave_idle;
           Report.Table.cell_f rb.Run_result.per_key_ns;
         ]))

let masters (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let n_slaves = sc.Workload.Scenario.n_nodes - 1 in
  let slave_keys = (sc.Workload.Scenario.n_keys + n_slaves - 1) / n_slaves in
  let keys, queries = Runner.workload sc in
  {
    cells =
      List.map
        (fun n_masters ->
          (* Keep the slave pool fixed; masters are additional nodes. *)
          cell ~axes:[ Masters ]
            (sc
            |> Workload.Scenario.with_masters n_masters
            |> Workload.Scenario.with_nodes (n_slaves + n_masters))
            ~keys ~queries Methods.C3)
        [ 1; 2; 4 ];
    collect =
      table
        [
          "Masters"; "C-3 ns/key (sim)"; "master busy"; "slave idle";
          "model ns/key"; "NIC floor ns/key";
        ]
        (fun (c, r) ->
          let { Workload.Scenario.n_masters; params; net; _ } = c.scenario in
          [
            string_of_int n_masters;
            Report.Table.cell_f r.Run_result.per_key_ns;
            Report.Table.cell_pct r.Run_result.master_busy;
            Report.Table.cell_pct r.Run_result.slave_idle;
            Report.Table.cell_f
              (Model.Predict.method_c3 params net ~slave_keys ~n_masters
                 ~n_slaves);
            Report.Table.cell_f (Model.Predict.master_bound_ns net ~n_masters);
          ]);
  }

let line_size (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  (* The workload depends only on the seed and counts, not the machine
     profile, so one generation serves both rows. *)
  let keys, queries = Runner.workload sc in
  cross
    ~rows:[ Cachesim.Mem_params.pentium3; Cachesim.Mem_params.pentium4 ]
    ~cols:[ Methods.A; Methods.C3 ]
    (fun params ->
      cell ~axes:[ Machine ] (Workload.Scenario.with_params params sc) ~keys
        ~queries)
    (table [ "Machine"; "A ns/key"; "C-3 ns/key"; "A / C-3" ]
       (fun ((params : Cachesim.Mem_params.t), results) ->
         let ra = List.nth results 0 and rc = List.nth results 1 in
         [
           params.Cachesim.Mem_params.name;
           Report.Table.cell_f ra.Run_result.per_key_ns;
           Report.Table.cell_f rc.Run_result.per_key_ns;
           Report.Table.cell_f
             (ra.Run_result.per_key_ns /. rc.Run_result.per_key_ns);
         ]))

let hierarchy (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, queries = Runner.workload sc in
  (* Every dispatch tier sits over the same [n_nodes - 1] slaves. *)
  let tier masters routers =
    cell ~axes:[ Masters ]
      ~topology:
        (if routers = 0 then Method_c.Flat else Method_c.Routers routers)
      (sc
      |> Workload.Scenario.with_masters masters
      |> Workload.Scenario.with_nodes
           (masters + routers + sc.Workload.Scenario.n_nodes - 1))
      ~keys ~queries Methods.C3
  in
  {
    cells = [ tier 1 0; tier 3 0; tier 1 2; tier 1 3 ];
    collect =
      table
        [
          "Topology"; "nodes"; "ns/key"; "mean resp"; "master busy";
          "slave idle"; "errors";
        ]
        (fun (c, r) ->
          [
            (match (c.topology, c.scenario.Workload.Scenario.n_masters) with
            | Method_c.Flat, 1 -> "flat (1 master)"
            | Method_c.Flat, m -> Printf.sprintf "%d masters" m
            | Method_c.Routers r, _ -> Printf.sprintf "tree (%d routers)" r);
            string_of_int c.scenario.Workload.Scenario.n_nodes;
            Report.Table.cell_f r.Run_result.per_key_ns;
            Simcore.Simtime.to_string r.Run_result.mean_response_ns;
            Report.Table.cell_pct r.Run_result.master_busy;
            Report.Table.cell_pct r.Run_result.slave_idle;
            Report.Table.cell_i r.Run_result.validation_errors;
          ]);
  }

let structures (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let p = sc.Workload.Scenario.params in
  let g = Prng.Splitmix.create (sc.Workload.Scenario.seed + 31) in
  let measure n_keys =
    let keys = Workload.Keygen.index_keys (Prng.Splitmix.copy g) ~n:n_keys in
    let queries =
      Workload.Keygen.uniform_queries (Prng.Splitmix.copy g) ~n:20_000
    in
    let with_machine build search =
      let m = Machine.create (Simcore.Engine.create ()) ~name:"bench" p in
      let idx = build m keys in
      (* Warm pass then measured pass: steady-state per-lookup cost. *)
      Array.iter (fun q -> ignore (search idx q)) queries;
      let before = Machine.busy_ns m in
      Array.iter (fun q -> ignore (search idx q)) queries;
      (Machine.busy_ns m -. before) /. float_of_int (Array.length queries)
    in
    [
      ("sorted array", with_machine Index.Sorted_array.build Index.Sorted_array.search);
      ("eytzinger", with_machine Index.Eytzinger.build Index.Eytzinger.search);
      ("csb+ tree", with_machine (Index.Csb_tree.build ?node_words:None) Index.Csb_tree.search);
      ("nary tree", with_machine (Index.Nary_tree.build ?keys_per_node:None) Index.Nary_tree.search);
    ]
  in
  let n_slaves = max 1 (sc.Workload.Scenario.n_nodes - sc.Workload.Scenario.n_masters) in
  let partition_keys = max 2 (sc.Workload.Scenario.n_keys / n_slaves) in
  let scales =
    Exec.sweep ~jobs:spec.Spec.jobs measure
      [ partition_keys; sc.Workload.Scenario.n_keys ]
  in
  let resident = snd (List.nth scales 0) in
  let full = snd (List.nth scales 1) in
  table
    [
      "Structure";
      Printf.sprintf "ns/lookup, %d keys (slave partition)" partition_keys;
      Printf.sprintf "ns/lookup, %d keys (full index)" sc.Workload.Scenario.n_keys;
    ]
    (fun ((name, small), (_, big)) ->
      [ name; Report.Table.cell_f small; Report.Table.cell_f big ])
    (List.combine resident full)

let slave_structure (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, queries = Runner.workload sc in
  {
    cells =
      List.map (cell sc ~keys ~queries) [ Methods.C1; Methods.C2; Methods.C3 ];
    collect =
      table
        [ "Variant"; "ns/key"; "slave idle"; "L2 rand misses"; "L2 seq misses" ]
        (fun ((c : cell), (r : Run_result.t)) ->
          [
            Methods.to_string c.method_id;
            Report.Table.cell_f r.Run_result.per_key_ns;
            Report.Table.cell_pct r.Run_result.slave_idle;
            string_of_int r.Run_result.cache.Cachesim.Hierarchy.rand_misses;
            string_of_int r.Run_result.cache.Cachesim.Hierarchy.seq_misses;
          ]);
  }

(* Dynamic-index interference: how much does an interleaved update
   stream cost each method?  Grid = update ratio x [spec.methods] x
   [spec.batches], every cell a dynamic run over the log-structured
   Segments index.
   Unlike the other studies this also returns the per-cell results,
   because `repro ablation updates` exports them (Run_result columns +
   dyn.* update accounting) as the CSV the determinism and smoke tests
   diff. *)
let updates (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let ratios =
    (* --updates pins the study to that exact mutation spec (ratio and
       merge policy); otherwise sweep a static baseline against a light
       and a heavy update load under the default policy. *)
    if Spec.dynamic spec then [ spec.Spec.updates ]
    else
      List.map
        (fun ratio -> { Workload.Mutation.none with Workload.Mutation.ratio })
        [ 0.0; 0.05; 0.2 ]
  in
  (* One op stream per ratio, shared read-only by its cells. *)
  let streams = List.map (fun u -> (u, Dynamic.workload sc ~updates:u)) ratios in
  cross ~rows:streams
    ~cols:
      (List.concat_map
         (fun m -> List.map (fun b -> (m, b)) spec.Spec.batches)
         spec.Spec.methods)
    (fun (u, (keys, queries, ops)) (m, b) ->
      {
        (cell ~axes:[ Update_ratio u.Workload.Mutation.ratio ]
           (Workload.Scenario.with_batch sc b) ~keys ~queries m)
        with
        ops = Updates { updates = u; ops };
      })
    (fun rows ->
      let rows =
        List.concat_map
          (fun ((u, _), runs) ->
            List.map (fun r -> (u, r, Dynamic.of_run r)) runs)
          rows
      in
      ( table
          [
            "Updates/query"; "Method"; "Batch"; "ns/key"; "applied";
            "no-ops"; "lost"; "segments"; "delta";
          ]
          (fun (u, r, (st : Dynamic.stats)) ->
            [
              Printf.sprintf "%g" u.Workload.Mutation.ratio;
              Methods.to_string r.Run_result.method_id;
              Printf.sprintf "%d KB" (r.Run_result.batch_bytes / 1024);
              Report.Table.cell_f r.Run_result.per_key_ns;
              string_of_int st.Dynamic.applied;
              string_of_int st.Dynamic.noops;
              string_of_int st.Dynamic.lost_updates;
              string_of_int st.Dynamic.segments;
              string_of_int st.Dynamic.delta_entries;
            ])
          rows,
        rows ))
