(* Quickstart: build a distributed in-cache index on a simulated cluster
   and compare the paper's five query-processing methods on one workload.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. Describe the experiment: the paper's cluster (11 Pentium III
     nodes, Myrinet), a 256k-key index (a ~3 MB tree, well beyond the 512 KB L2), 128k queries in 64 KB batches. *)
  let scenario =
    Workload.Scenario.with_batch
      (Workload.Scenario.paper
      |> Workload.Scenario.with_name "quickstart"
      |> Workload.Scenario.with_keys (1 lsl 18)
      |> Workload.Scenario.with_queries (1 lsl 17))
      (64 * 1024)
  in
  Format.printf "Scenario: %a@.@." Workload.Scenario.pp scenario;

  (* 2. Generate a workload: a sorted set of indexed keys and a stream of
     uniformly random search keys (both deterministic from the seed). *)
  let keys, queries = Dispatch.Runner.workload scenario in
  Format.printf "Generated %d indexed keys and %d queries.@.@."
    (Array.length keys) (Array.length queries);

  (* 3. Run every method.  Each run simulates the full cluster: cache
     hierarchies, network messages, master/slave overlap — and validates
     every returned rank against a reference implementation. *)
  let results =
    List.map
      (fun method_id -> Dispatch.Runner.run scenario ~method_id ~keys ~queries)
      Dispatch.Methods.all
  in

  (* 4. Report. *)
  let table =
    Report.Table.create
      ~headers:[ "method"; "ns/key"; "Mq/s"; "slave idle"; "errors" ]
  in
  List.iter
    (fun (r : Dispatch.Run_result.t) ->
      Report.Table.add_row table
        [
          "Method " ^ Dispatch.Methods.to_string r.Dispatch.Run_result.method_id;
          Report.Table.cell_f (Dispatch.Run_result.per_key_ns r);
          Report.Table.cell_f (Dispatch.Run_result.throughput_mqs r);
          Report.Table.cell_pct r.Dispatch.Run_result.slave_idle;
          Report.Table.cell_i r.Dispatch.Run_result.validation_errors;
        ])
    results;
  print_string (Report.Table.render table);

  let best =
    List.fold_left
      (fun acc r ->
        if Dispatch.Run_result.per_key_ns r < Dispatch.Run_result.per_key_ns acc
        then r
        else acc)
      (List.hd results) results
  in
  Format.printf "@.Fastest: Method %s at %.1f ns per lookup.@."
    (Dispatch.Methods.to_string best.Dispatch.Run_result.method_id)
    (Dispatch.Run_result.per_key_ns best)
