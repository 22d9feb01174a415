(* Object tracking in a sensor network (paper §1): the monitored region
   is divided into cells along a space-filling order; each cell boundary
   is a key, and "which cell is this object in?" is a rank query.  The
   tracking cluster must answer position updates fast enough to keep up
   with the sensor stream.

   This example stresses the locality assumption: objects move, so
   consecutive updates from one object hit nearby cells.  We compare a
   random update stream with a trajectory stream (random walks), and show
   the distributed in-cache index handles both while the tree baseline
   benefits from trajectory locality much less than one might hope.

   Run with:  dune exec examples/sensor_tracking.exe *)

let n_cells = 1 lsl 17
let n_updates = 1 lsl 17
let n_objects = 512

let () =
  Format.printf
    "Sensor-network tracking: %d cells, %d position updates from %d \
     objects@.@."
    n_cells n_updates n_objects;

  let g = Prng.Splitmix.create 7 in
  let cell_bounds = Workload.Keygen.index_keys g ~n:n_cells in

  (* Trajectories: each object random-walks through the coordinate
     space, so successive updates of one object are spatially close;
     updates from different objects interleave round-robin (as sensor
     reports would). *)
  let gw = Prng.Splitmix.split g in
  let positions =
    Array.init n_objects (fun _ -> Prng.Splitmix.int gw Index.Key.sentinel)
  in
  let step = Index.Key.sentinel / 4096 in
  let trajectory_updates =
    Array.init n_updates (fun i ->
        let o = i mod n_objects in
        let delta = Prng.Splitmix.int_in gw (-step) step in
        let p = max 0 (min (Index.Key.sentinel - 1) (positions.(o) + delta)) in
        positions.(o) <- p;
        p)
  in
  let random_updates =
    Workload.Keygen.uniform_queries (Prng.Splitmix.split g) ~n:n_updates
  in

  let scenario =
    Workload.Scenario.with_batch
      (Workload.Scenario.paper
      |> Workload.Scenario.with_name "sensors"
      |> Workload.Scenario.with_keys n_cells
      |> Workload.Scenario.with_queries n_updates)
      (32 * 1024)
  in

  let table =
    Report.Table.create
      ~headers:[ "update stream"; "method"; "ns/update"; "Mupd/s"; "errors" ]
  in
  let run label stream method_id =
    let r =
      Dispatch.Runner.run scenario ~method_id ~keys:cell_bounds ~queries:stream
    in
    Report.Table.add_row table
      [
        label;
        "Method " ^ Dispatch.Methods.to_string method_id;
        Report.Table.cell_f (Dispatch.Run_result.per_key_ns r);
        Report.Table.cell_f (Dispatch.Run_result.throughput_mqs r);
        Report.Table.cell_i r.Dispatch.Run_result.validation_errors;
      ];
    r
  in
  let a_rand = run "random teleport" random_updates Dispatch.Methods.A in
  let c_rand = run "random teleport" random_updates Dispatch.Methods.C3 in
  let a_traj = run "trajectories" trajectory_updates Dispatch.Methods.A in
  let c_traj = run "trajectories" trajectory_updates Dispatch.Methods.C3 in
  print_string (Report.Table.render table);

  Format.printf
    "@.Speed-up of the distributed in-cache index: %.2fx on random \
     updates, %.2fx on trajectory updates.@."
    (Dispatch.Run_result.per_key_ns a_rand /. Dispatch.Run_result.per_key_ns c_rand)
    (Dispatch.Run_result.per_key_ns a_traj /. Dispatch.Run_result.per_key_ns c_traj);
  Format.printf
    "Trajectory locality helps the replicated tree only at its upper \
     levels; the leaf working set still exceeds the L2 cache (A: %.1f -> \
     %.1f ns), while Method C-3 is cache-resident either way.@."
    (Dispatch.Run_result.per_key_ns a_rand)
    (Dispatch.Run_result.per_key_ns a_traj)
