(* Packet routing over an ordered prefix table (paper §1): a route table
   of disjoint address ranges (think aggregated IPv4 prefixes), each with
   a next hop.  Looking up a packet's destination = finding the range
   that contains the address = a rank query on the sorted range-start
   array — precisely the index-lookup problem the paper distributes.

   The example builds a 256k-entry route table, streams packets whose
   destinations mix uniform scans with bursty flows, and sweeps the
   batch size for Method C-3 to expose the paper's latency/throughput
   trade-off in a networking setting.

   Run with:  dune exec examples/packet_router.exe *)

let n_routes = 1 lsl 18
let n_packets = 1 lsl 17

let () =
  Format.printf "Range-based packet router: %d routes, %d packets@.@."
    n_routes n_packets;

  (* Route table: strictly increasing range starts over the 30-bit
     address space; route i covers [start_i, start_{i+1}).  Next hop for
     a packet = rank of its destination minus one. *)
  let g = Prng.Splitmix.create 2025 in
  let route_starts = Workload.Keygen.index_keys g ~n:n_routes in

  (* Packet stream: 70% uniform background traffic, 30% bursts towards a
     handful of destinations (flows). *)
  let gq = Prng.Splitmix.split g in
  let flow_targets =
    Array.init 16 (fun _ -> Prng.Splitmix.int gq Index.Key.sentinel)
  in
  let packets =
    Array.init n_packets (fun _ ->
        if Prng.Splitmix.int gq 10 < 3 then
          flow_targets.(Prng.Splitmix.int gq (Array.length flow_targets))
        else Prng.Splitmix.int gq Index.Key.sentinel)
  in

  let scenario batch_kb =
    Workload.Scenario.with_batch
      (Workload.Scenario.paper
      |> Workload.Scenario.with_name "router"
      |> Workload.Scenario.with_keys n_routes
      |> Workload.Scenario.with_queries n_packets)
      (batch_kb * 1024)
  in

  (* Sweep the batch size: response time grows with the batch while
     throughput improves until the pipeline saturates. *)
  let table =
    Report.Table.create
      ~headers:
        [ "batch"; "ns/packet"; "Mpps"; "batch fill latency"; "slave idle" ]
  in
  List.iter
    (fun kb ->
      let sc = scenario kb in
      let r =
        Dispatch.Runner.run sc ~method_id:Dispatch.Methods.C3
          ~keys:route_starts ~queries:packets
      in
      (* Response-time proxy: how long the master takes to fill one
         outgoing message (batch/slaves keys at the measured rate). *)
      let fill_ns =
        Dispatch.Run_result.per_key_ns r
        *. float_of_int
             (Workload.Scenario.queries_per_batch sc
             / (sc.Workload.Scenario.n_nodes - 1))
      in
      Report.Table.add_row table
        [
          Printf.sprintf "%d KB" kb;
          Report.Table.cell_f (Dispatch.Run_result.per_key_ns r);
          Report.Table.cell_f (Dispatch.Run_result.throughput_mqs r);
          Simcore.Simtime.to_string fill_ns;
          Report.Table.cell_pct r.Dispatch.Run_result.slave_idle;
        ])
    [ 8; 32; 128; 512 ];
  print_string (Report.Table.render table);

  (* Compare against the single-node baseline at the best batch size. *)
  let sc = scenario 32 in
  let a =
    Dispatch.Runner.run sc ~method_id:Dispatch.Methods.A ~keys:route_starts
      ~queries:packets
  in
  let c =
    Dispatch.Runner.run sc ~method_id:Dispatch.Methods.C3 ~keys:route_starts
      ~queries:packets
  in
  Format.printf
    "@.At 32 KB batches the distributed route table forwards %.2fx more \
     packets per second than the replicated table (%.1f vs %.1f ns/packet); \
     %d + %d lookups validated.@."
    (Dispatch.Run_result.throughput_mqs c /. Dispatch.Run_result.throughput_mqs a)
    (Dispatch.Run_result.per_key_ns c)
    (Dispatch.Run_result.per_key_ns a)
    c.Dispatch.Run_result.n_queries a.Dispatch.Run_result.n_queries;
  assert (c.Dispatch.Run_result.validation_errors = 0);
  assert (a.Dispatch.Run_result.validation_errors = 0)
