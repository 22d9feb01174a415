(* Publish-subscribe middleware routing (paper §1): a broker cluster must
   forward each published event to the broker responsible for its topic.
   Topic names hash into the sorted key space; each broker owns a
   contiguous range of the topic-hash space, and the routing table is the
   distributed in-cache index.

   The example builds a topic universe, simulates a publication stream
   whose popularity follows a Zipf law (few hot topics, long tail), and
   compares the replicated-index baseline (Method A) with the distributed
   in-cache index (Method C-3).

   Run with:  dune exec examples/pubsub_routing.exe *)

let n_topics = 300_000
let n_events = 1 lsl 17
let n_brokers = 11

(* Topic names hashed to the index key space via SplitMix (stands in for
   a real string hash; what matters is a deterministic, well-spread
   mapping into the ordered key space). *)
let topic_hash name =
  let g = Prng.Splitmix.create (Hashtbl.hash name) in
  Prng.Splitmix.int g Index.Key.sentinel

let () =
  Format.printf
    "Publish/subscribe routing: %d topics over %d brokers, %d events@.@."
    n_topics n_brokers n_events;

  (* Build the topic table: hashes of "topic-0" .. "topic-N".  Hash
     collisions are discarded (a real broker would chain them). *)
  let seen = Hashtbl.create (2 * n_topics) in
  let i = ref 0 in
  while Hashtbl.length seen < n_topics do
    Hashtbl.replace seen (topic_hash (Printf.sprintf "topic-%d" !i)) ();
    incr i
  done;
  let topic_keys = Array.of_seq (Seq.map fst (Hashtbl.to_seq seen)) in
  Array.sort compare topic_keys;

  (* The publication stream: Zipf-popular topics, scattered over the hash
     space so hot topics do not all land on one broker. *)
  let g = Prng.Splitmix.create 99 in
  let events =
    Workload.Keygen.zipf_queries g ~keys:topic_keys ~n:n_events ~s:0.9
  in

  let scenario =
    Workload.Scenario.with_batch
      (Workload.Scenario.paper
      |> Workload.Scenario.with_name "pubsub"
      |> Workload.Scenario.with_keys n_topics
      |> Workload.Scenario.with_queries n_events
      |> Workload.Scenario.with_nodes n_brokers)
      (64 * 1024)
  in

  let run method_id =
    Dispatch.Runner.run scenario ~method_id ~keys:topic_keys ~queries:events
  in
  let baseline = run Dispatch.Methods.A in
  let buffered = run Dispatch.Methods.B in
  let distributed = run Dispatch.Methods.C3 in

  let table =
    Report.Table.create
      ~headers:[ "routing strategy"; "ns/event"; "events/s (M)"; "errors" ]
  in
  List.iter
    (fun (label, (r : Dispatch.Run_result.t)) ->
      Report.Table.add_row table
        [
          label;
          Report.Table.cell_f (Dispatch.Run_result.per_key_ns r);
          Report.Table.cell_f (Dispatch.Run_result.throughput_mqs r);
          Report.Table.cell_i r.Dispatch.Run_result.validation_errors;
        ])
    [
      ("replicated table, per-event lookup (A)", baseline);
      ("replicated table, buffered batches (B)", buffered);
      ("distributed in-cache table (C-3)", distributed);
    ];
  print_string (Report.Table.render table);

  Format.printf
    "@.Distributed in-cache routing is %.2fx the throughput of the \
     replicated baseline under Zipf(0.9) topic popularity.@."
    (Dispatch.Run_result.throughput_mqs distributed
    /. Dispatch.Run_result.throughput_mqs baseline);

  (* Routing correctness spot-check through the public Partition API: the
     broker chosen for an event's topic hash must own the range holding
     that hash. *)
  let part = Dispatch.Partition.make ~keys:topic_keys ~parts:(n_brokers - 1) in
  let ok = ref true in
  Array.iter
    (fun ev ->
      let broker = Dispatch.Partition.owner part ev in
      let base = Dispatch.Partition.base part broker in
      let len = Dispatch.Partition.slice_len part broker in
      let rank = Index.Ref_impl.rank topic_keys ev in
      if not (rank >= base && rank <= base + len) then ok := false)
    (Array.sub events 0 1000);
  Format.printf "Broker ownership spot-check (1000 events): %s@."
    (if !ok then "consistent" else "INCONSISTENT")
