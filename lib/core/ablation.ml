module Spec = Experiment.Spec

let kib n = n * 1024

let batch_overhead
    ?(batches = [ kib 8; kib 32; kib 128; kib 512; kib 2048; kib 4096 ])
    (spec : Spec.t) =
  let sc = Spec.scenario spec in
  let keys, queries = Runner.workload sc in
  let tbl =
    Report.Table.create
      ~headers:[ "Batch"; "C-3 ns/key"; "slave idle"; "master busy"; "messages" ]
  in
  Exec.sweep ~jobs:spec.Spec.jobs
    (fun batch ->
      Runner.run
        (Workload.Scenario.with_batch sc batch)
        ~method_id:Methods.C3 ~keys ~queries)
    batches
  |> List.iter (fun (batch, r) ->
         Report.Table.add_row tbl
           [
             Printf.sprintf "%d KB" (batch / 1024);
             Report.Table.cell_f r.Run_result.per_key_ns;
             Report.Table.cell_pct r.Run_result.slave_idle;
             Report.Table.cell_pct r.Run_result.master_busy;
             string_of_int r.Run_result.messages;
           ]);
  tbl

let network (spec : Spec.t) =
  let sc = Spec.scenario spec in
  let profiles =
    [ Netsim.Profile.myrinet; Netsim.Profile.gigabit_ethernet;
      Netsim.Profile.fast_ethernet ]
  in
  let keys, queries = Runner.workload sc in
  let batches = [ kib 8; kib 64; kib 256; kib 1024 ] in
  let headers =
    "Network"
    :: List.map (fun b -> Printf.sprintf "%d KB ns/key" (b / 1024)) batches
  in
  let tbl = Report.Table.create ~headers in
  let grid =
    List.concat_map
      (fun profile -> List.map (fun batch -> (profile, batch)) batches)
      profiles
  in
  let results =
    Exec.sweep ~jobs:spec.Spec.jobs
      (fun (profile, batch) ->
        let sc =
          Workload.Scenario.with_net profile
            (Workload.Scenario.with_batch sc batch)
        in
        Runner.run sc ~method_id:Methods.C3 ~keys ~queries)
      grid
  in
  List.iter
    (fun (profile : Netsim.Profile.t) ->
      let cells =
        List.filter_map
          (fun (((p : Netsim.Profile.t), _), r) ->
            if p.Netsim.Profile.name = profile.Netsim.Profile.name then
              Some (Report.Table.cell_f r.Run_result.per_key_ns)
            else None)
          results
      in
      Report.Table.add_row tbl (profile.Netsim.Profile.name :: cells))
    profiles;
  tbl

let skew ?(exponents = [ 0.0; 0.5; 1.0 ]) (spec : Spec.t) =
  let sc = Spec.scenario spec in
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
  let results =
    Exec.sweep ~jobs:spec.Spec.jobs
      (fun ((_, queries), method_id) -> Runner.run sc ~method_id ~keys ~queries)
      (List.concat_map
         (fun stream ->
           List.map
             (fun method_id -> (stream, method_id))
             [ Methods.C3; Methods.B ])
         streams)
  in
  let find s method_id =
    snd
      (List.find (fun (((s', _), m), _) -> s' = s && m = method_id) results)
  in
  let tbl =
    Report.Table.create
      ~headers:[ "Zipf s"; "C-3 ns/key"; "slave idle"; "B ns/key" ]
  in
  List.iter
    (fun s ->
      let rc = find s Methods.C3 in
      let rb = find s Methods.B in
      Report.Table.add_row tbl
        [
          Printf.sprintf "%.1f" s;
          Report.Table.cell_f rc.Run_result.per_key_ns;
          Report.Table.cell_pct rc.Run_result.slave_idle;
          Report.Table.cell_f rb.Run_result.per_key_ns;
        ])
    exponents;
  tbl

let masters (spec : Spec.t) =
  let sc = Spec.scenario spec in
  let n_slaves = sc.Workload.Scenario.n_nodes - sc.Workload.Scenario.n_masters in
  let slave_keys = (sc.Workload.Scenario.n_keys + n_slaves - 1) / n_slaves in
  let keys, queries = Runner.workload sc in
  let tbl =
    Report.Table.create
      ~headers:
        [
          "Masters"; "C-3 ns/key (sim)"; "master busy"; "slave idle";
          "model ns/key"; "NIC floor ns/key";
        ]
  in
  Exec.sweep ~jobs:spec.Spec.jobs
    (fun n_masters ->
      (* Keep the slave pool fixed; masters are additional nodes. *)
      let sc =
        sc
        |> Workload.Scenario.with_masters n_masters
        |> Workload.Scenario.with_nodes (n_slaves + n_masters)
      in
      (sc, Runner.run sc ~method_id:Methods.C3 ~keys ~queries))
    [ 1; 2; 4 ]
  |> List.iter (fun (n_masters, (sc, r)) ->
         let pred =
           Model.Predict.method_c3 sc.Workload.Scenario.params
             sc.Workload.Scenario.net ~slave_keys ~n_masters ~n_slaves
         in
         Report.Table.add_row tbl
           [
             string_of_int n_masters;
             Report.Table.cell_f r.Run_result.per_key_ns;
             Report.Table.cell_pct r.Run_result.master_busy;
             Report.Table.cell_pct r.Run_result.slave_idle;
             Report.Table.cell_f pred;
             Report.Table.cell_f
               (Model.Predict.master_bound_ns sc.Workload.Scenario.net
                  ~n_masters);
           ]);
  tbl

let line_size (spec : Spec.t) =
  let sc = Spec.scenario spec in
  let machines = [ Cachesim.Mem_params.pentium3; Cachesim.Mem_params.pentium4 ] in
  (* The workload depends only on the seed and counts, not the machine
     profile, so one generation serves both rows. *)
  let keys, queries = Runner.workload sc in
  let results =
    Exec.sweep ~jobs:spec.Spec.jobs
      (fun (params, method_id) ->
        Runner.run
          (Workload.Scenario.with_params params sc)
          ~method_id ~keys ~queries)
      (List.concat_map
         (fun params ->
           List.map
             (fun method_id -> (params, method_id))
             [ Methods.A; Methods.C3 ])
         machines)
  in
  let find name method_id =
    snd
      (List.find
         (fun (((p : Cachesim.Mem_params.t), m), _) ->
           p.Cachesim.Mem_params.name = name && m = method_id)
         results)
  in
  let tbl =
    Report.Table.create
      ~headers:[ "Machine"; "A ns/key"; "C-3 ns/key"; "A / C-3" ]
  in
  List.iter
    (fun (params : Cachesim.Mem_params.t) ->
      let name = params.Cachesim.Mem_params.name in
      let ra = find name Methods.A in
      let rc = find name Methods.C3 in
      Report.Table.add_row tbl
        [
          name;
          Report.Table.cell_f ra.Run_result.per_key_ns;
          Report.Table.cell_f rc.Run_result.per_key_ns;
          Report.Table.cell_f
            (ra.Run_result.per_key_ns /. rc.Run_result.per_key_ns);
        ])
    machines;
  tbl

let hierarchy (spec : Spec.t) =
  let sc = Spec.scenario spec in
  let keys, queries = Runner.workload sc in
  let tbl =
    Report.Table.create
      ~headers:
        [
          "Topology"; "nodes"; "ns/key"; "mean resp"; "master busy";
          "slave idle"; "errors";
        ]
  in
  let n_slaves = sc.Workload.Scenario.n_nodes - 1 in
  (* Same slave pool everywhere; the dispatch tier varies. *)
  let configs =
    [
      ( "flat (1 master)", sc.Workload.Scenario.n_nodes,
        fun () -> Runner.run sc ~method_id:Methods.C3 ~keys ~queries );
      ( "3 masters", n_slaves + 3,
        fun () ->
          Runner.run
            (sc
            |> Workload.Scenario.with_masters 3
            |> Workload.Scenario.with_nodes (n_slaves + 3))
            ~method_id:Methods.C3 ~keys ~queries );
    ]
    @ List.map
        (fun routers ->
          ( Printf.sprintf "tree (%d routers)" routers,
            1 + routers + n_slaves,
            fun () ->
              Runner.run ~routers
                (Workload.Scenario.with_nodes (1 + routers + n_slaves) sc)
                ~method_id:Methods.C3 ~keys ~queries ))
        [ 2; 3 ]
  in
  Exec.sweep ~jobs:spec.Spec.jobs (fun (_, _, work) -> work ()) configs
  |> List.iter (fun ((label, nodes, _), (r : Run_result.t)) ->
         Report.Table.add_row tbl
           [
             label;
             string_of_int nodes;
             Report.Table.cell_f r.Run_result.per_key_ns;
             Simcore.Simtime.to_string r.Run_result.mean_response_ns;
             Report.Table.cell_pct r.Run_result.master_busy;
             Report.Table.cell_pct r.Run_result.slave_idle;
             Report.Table.cell_i r.Run_result.validation_errors;
           ]);
  tbl

let structures (spec : Spec.t) =
  let sc = Spec.scenario spec in
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
  let tbl =
    Report.Table.create
      ~headers:
        [
          "Structure";
          Printf.sprintf "ns/lookup, %d keys (slave partition)" partition_keys;
          Printf.sprintf "ns/lookup, %d keys (full index)" sc.Workload.Scenario.n_keys;
        ]
  in
  List.iter2
    (fun (name, small) (_, big) ->
      Report.Table.add_row tbl
        [ name; Report.Table.cell_f small; Report.Table.cell_f big ])
    resident full;
  tbl

let slave_structure (spec : Spec.t) =
  let sc = Spec.scenario spec in
  let keys, queries = Runner.workload sc in
  let tbl =
    Report.Table.create
      ~headers:
        [ "Variant"; "ns/key"; "slave idle"; "L2 rand misses"; "L2 seq misses" ]
  in
  Exec.sweep ~jobs:spec.Spec.jobs
    (fun method_id -> Runner.run sc ~method_id ~keys ~queries)
    [ Methods.C1; Methods.C2; Methods.C3 ]
  |> List.iter (fun (method_id, (r : Run_result.t)) ->
         Report.Table.add_row tbl
           [
             Methods.to_string method_id;
             Report.Table.cell_f r.Run_result.per_key_ns;
             Report.Table.cell_pct r.Run_result.slave_idle;
             string_of_int r.Run_result.cache.Cachesim.Hierarchy.rand_misses;
             string_of_int r.Run_result.cache.Cachesim.Hierarchy.seq_misses;
           ]);
  tbl

(* Dynamic-index interference: how much does an interleaved update
   stream cost each method?  Grid = update ratio x method x batch size,
   every cell a full {!Dynamic} run over the log-structured Segments
   index.  Unlike the other studies this also returns the per-cell
   results, because `repro ablation updates` exports them (Run_result
   columns + dyn.* update accounting) as the CSV the determinism and
   smoke tests diff. *)
let updates (spec : Spec.t) =
  let sc = Spec.scenario spec in
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
  let methods =
    if spec.Spec.methods <> Methods.all then spec.Spec.methods
    else [ Methods.A; Methods.B; Methods.C3 ]
  in
  let batches =
    (* One batch size unless --batches widens the sweep: the default
       grid is already ratios x methods. *)
    if spec.Spec.batches <> Workload.Scenario.fig3_batches then
      spec.Spec.batches
    else [ sc.Workload.Scenario.batch_bytes ]
  in
  let grid =
    List.concat_map
      (fun u ->
        List.concat_map
          (fun m -> List.map (fun b -> (u, m, b)) batches)
          methods)
      ratios
  in
  let results =
    Exec.sweep ~jobs:spec.Spec.jobs
      (fun (u, method_id, batch) ->
        (* Thread Dynamic's private stats out around the instrumentation
           wrapper, which fixes the body's result type to Run_result.t
           alone. *)
        let stats = ref None in
        let r =
          Experiment.with_run_instrumented spec (fun () ->
              let r, st =
                Dynamic.run ~faults:spec.Spec.faults
                  (Workload.Scenario.with_batch sc batch)
                  ~updates:u ~method_id
              in
              stats := Some st;
              r)
        in
        (r, Option.get !stats))
      grid
  in
  let tbl =
    Report.Table.create
      ~headers:
        [
          "Updates/query"; "Method"; "Batch"; "ns/key"; "applied"; "no-ops";
          "lost"; "segments"; "delta";
        ]
  in
  let rows =
    List.map
      (fun ((u, _, batch), (r, (st : Dynamic.stats))) ->
        Report.Table.add_row tbl
          [
            Printf.sprintf "%g" u.Workload.Mutation.ratio;
            Methods.to_string r.Run_result.method_id;
            Printf.sprintf "%d KB" (batch / 1024);
            Report.Table.cell_f r.Run_result.per_key_ns;
            string_of_int st.Dynamic.applied;
            string_of_int st.Dynamic.noops;
            string_of_int st.Dynamic.lost_updates;
            string_of_int st.Dynamic.segments;
            string_of_int st.Dynamic.delta_entries;
          ];
        (u, r, st))
      results
  in
  (tbl, rows)
