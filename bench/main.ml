(* Benchmark harness: one Bechamel test per paper artefact (Tables 1-3,
   Figures 3-4) plus microbenchmarks of the index structures and the
   simulation substrates.  It times the artefacts and does not print
   them: `repro` renders every table and figure (for instance
   `repro fig3 --scale paper --queries 131072 --batches 8,32,128,512`).

   Flags are Cmdliner terms shared with `repro` (see {!Cli}), so unknown
   flags are errors and `bench --help` documents everything.  Two
   baseline-gate modes short-circuit the benchmarks entirely (the gate
   and the throughput trajectory live in {!Bench_harness}):

     bench --save-baseline FILE    capture the gated sweep's simulated
                                   costs (promote an intentional change)
     bench --check-baseline FILE   re-run the sweep and diff bit-for-bit
                                   against the committed file (exit 1 on
                                   any drift) — the @bench-baseline alias

   Scale note: Bechamel re-runs each staged function many times, so the
   artefact tests use a reduced query volume (2^15-2^17).  Per-key results
   are what the paper's figures compare and are stable under this scaling;
   run `repro fig3 --scale paper` for full-scale numbers. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed regions; lazy so the
   baseline-gate modes never pay for them) *)

let bench_scenario =
  Workload.Scenario.paper
  |> Workload.Scenario.with_name "bench"
  |> Workload.Scenario.with_queries (1 lsl 15)

let bench_spec =
  Dispatch.Experiment.Spec.default
  |> Dispatch.Experiment.Spec.with_scenario bench_scenario

(* Open-loop serving fixture: a short horizon keeps one serving run in
   the same cost envelope as the other artefact benchmarks. *)
let serve_scenario =
  bench_scenario
  |> Workload.Scenario.with_name "bench-serve"
  |> Workload.Scenario.with_duration 4e6
  |> Workload.Scenario.with_clients 16

let serve_spec =
  Dispatch.Experiment.Spec.default
  |> Dispatch.Experiment.Spec.with_scenario serve_scenario
  |> Dispatch.Experiment.Spec.with_methods [ Dispatch.Methods.B; Dispatch.Methods.C3 ]

let workload = lazy (Dispatch.Runner.workload bench_scenario)

let fresh_machine () =
  Machine.create (Simcore.Engine.create ()) ~name:"bench"
    Cachesim.Mem_params.pentium3

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: index structures (1024 simulated lookups each) *)

let micro_tests ~jobs =
  let keys, queries = Lazy.force workload in
  let lookup_queries = Array.sub queries 0 1024 in
  let test_sorted_array =
    let m = fresh_machine () in
    let sa = Index.Sorted_array.build m keys in
    Test.make ~name:"sorted-array/1k-lookups"
      (Staged.stage @@ fun () ->
       Array.iter (fun q -> ignore (Index.Sorted_array.search sa q)) lookup_queries)
  in
  let test_nary =
    let m = fresh_machine () in
    let t = Index.Nary_tree.build m keys in
    Test.make ~name:"nary-tree/1k-lookups"
      (Staged.stage @@ fun () ->
       Array.iter (fun q -> ignore (Index.Nary_tree.search t q)) lookup_queries)
  in
  let test_csb =
    let m = fresh_machine () in
    let t = Index.Csb_tree.build m keys in
    Test.make ~name:"csb-tree/1k-lookups"
      (Staged.stage @@ fun () ->
       Array.iter (fun q -> ignore (Index.Csb_tree.search t q)) lookup_queries)
  in
  let test_buffered =
    let m = fresh_machine () in
    let t = Index.Nary_tree.build m keys in
    let b = Index.Buffered.create ~max_batch:1024 t in
    let region = Machine.alloc m 1024 in
    Test.make ~name:"buffered/1k-batch"
      (Staged.stage @@ fun () ->
       Machine.poke_array m region lookup_queries;
       Index.Buffered.process_batch b ~queries:region ~results:region ~n:1024)
  in
  let test_eytzinger =
    let m = fresh_machine () in
    let t = Index.Eytzinger.build m keys in
    Test.make ~name:"eytzinger/1k-lookups"
      (Staged.stage @@ fun () ->
       Array.iter (fun q -> ignore (Index.Eytzinger.search t q)) lookup_queries)
  in
  let test_cache_access =
    let h = Cachesim.Hierarchy.create Cachesim.Mem_params.pentium3 in
    let g = Prng.Splitmix.create 3 in
    let addrs = Array.init 4096 (fun _ -> Prng.Splitmix.int g (1 lsl 24)) in
    Test.make ~name:"cachesim/4k-accesses"
      (Staged.stage @@ fun () ->
       Array.iter (fun a -> ignore (Cachesim.Hierarchy.access h ~addr:a ~write:false)) addrs)
  in
  let test_cache_sequential =
    (* A word-by-word walk: seven of every eight references repeat the
       previous L1 line, the case the repeat-line memo serves. *)
    let h = Cachesim.Hierarchy.create Cachesim.Mem_params.pentium3 in
    Test.make ~name:"cachesim/4k-sequential-words"
      (Staged.stage @@ fun () ->
       for w = 0 to 4095 do
         ignore (Cachesim.Hierarchy.access h ~addr:(w * 4) ~write:false)
       done)
  in
  let test_cache_tlb_strided =
    (* 48 resident pages 128 pages apart, visited at random: power-of-two
       buffer strides like these made TLB hits share one slot of a
       [page land 127] index.  Page [k] is touched only in its line [k],
       so the 48 lines sit in distinct L1 and L2 sets and every reference
       after the first pass is a TLB hit and an L1 hit. *)
    let h = Cachesim.Hierarchy.create Cachesim.Mem_params.pentium3 in
    let g = Prng.Splitmix.create 5 in
    let page = Cachesim.Mem_params.pentium3.page_bytes in
    let addrs =
      Array.init 4096 (fun _ ->
          let k = Prng.Splitmix.int g 48 in
          (k * 128 * page) + (k * 32) + (4 * Prng.Splitmix.int g 8))
    in
    Test.make ~name:"cachesim/4k-tlb-strided"
      (Staged.stage @@ fun () ->
       Array.iter (fun a -> ignore (Cachesim.Hierarchy.access h ~addr:a ~write:false)) addrs)
  in
  let test_cache_l2_misses =
    (* Random words over 64 MB, 128 times the L2: the addresses come from
       a 2^18-entry pool (8 MB of lines, 16 times the L2) walked 4k at a
       time, so nearly every reference misses L1 and L2 and most miss
       the TLB.  No other cachesim stream misses L2 at random. *)
    let h = Cachesim.Hierarchy.create Cachesim.Mem_params.pentium3 in
    let g = Prng.Splitmix.create 7 in
    let pool = 1 lsl 18 in
    let addrs = Array.init pool (fun _ -> 4 * Prng.Splitmix.int g (1 lsl 24)) in
    let next = ref 0 in
    Test.make ~name:"cachesim/4k-l2-random-misses"
      (Staged.stage @@ fun () ->
       let base = !next in
       for i = base to base + 4095 do
         ignore
           (Cachesim.Hierarchy.access h ~addr:(Array.unsafe_get addrs i)
              ~write:false)
       done;
       next := (base + 4096) land (pool - 1))
  in
  let test_cache_access_scoped =
    (* Same access stream as cachesim/4k-accesses but with a cache
       microscope attached: the delta is the classifier's overhead
       (stack-distance tracking + 3C + set counters per access). *)
    let scope = Obs.Cachescope.create () in
    let h = Cachesim.Hierarchy.create Cachesim.Mem_params.pentium3 in
    ignore (Cachesim.Hierarchy.attach_scope h scope ~node_name:"bench");
    let g = Prng.Splitmix.create 3 in
    let addrs = Array.init 4096 (fun _ -> Prng.Splitmix.int g (1 lsl 24)) in
    Test.make ~name:"cachesim/4k-accesses+scope"
      (Staged.stage @@ fun () ->
       Array.iter (fun a -> ignore (Cachesim.Hierarchy.access h ~addr:a ~write:false)) addrs)
  in
  let test_engine =
    Test.make ~name:"simcore/1k-process-switches"
      (Staged.stage @@ fun () ->
       let eng = Simcore.Engine.create () in
       Simcore.Engine.spawn eng (fun () ->
           for _ = 1 to 1000 do
             Simcore.Engine.delay eng 1.0
           done);
       Simcore.Engine.run eng)
  in
  let test_network_stream =
    Test.make ~name:"netsim/1k-msgs-2-nodes"
      (Staged.stage @@ fun () ->
       let eng = Simcore.Engine.create () in
       let net = Netsim.Network.create eng Netsim.Profile.myrinet ~nodes:2 in
       Simcore.Engine.spawn eng (fun () ->
           for i = 1 to 1000 do
             Netsim.Network.isend net ~src:0 ~dst:1 ~size:64 i
           done);
       Simcore.Engine.spawn eng (fun () ->
           for _ = 1 to 1000 do
             ignore (Netsim.Network.recv net ~dst:1)
           done);
       Simcore.Engine.run eng)
  in
  let test_sweep_overhead =
    (* Cost of sweeping 64 trivial cells: the executor's fixed overhead
       (domain spawns and joins included), to be compared against a
       multi-ms simulation cell. *)
    Test.make ~name:(Printf.sprintf "exec/sweep-64-cells-%dw" jobs)
      (Staged.stage @@ fun () ->
       ignore (Exec.sweep ~jobs (fun i -> i * i) (List.init 64 Fun.id)))
  in
  Test.make_grouped ~name:"micro"
    [ test_sorted_array; test_nary; test_csb; test_buffered;
      test_eytzinger; test_cache_access; test_cache_sequential;
      test_cache_tlb_strided; test_cache_l2_misses; test_cache_access_scoped;
      test_engine; test_network_stream; test_sweep_overhead ]

(* ------------------------------------------------------------------ *)
(* One test per paper artefact *)

let artefact_tests () =
  let keys, queries = Lazy.force workload in
  let test_table1 =
    Test.make ~name:"table1/index-setup"
      (Staged.stage @@ fun () ->
       ignore (Dispatch.Experiment.table1 bench_spec))
  in
  let test_table2 =
    Test.make ~name:"table2/calibration"
      (Staged.stage @@ fun () ->
       ignore
         (Dispatch.Calibrate.measure Cachesim.Mem_params.pentium3
            Netsim.Profile.myrinet))
  in
  let fig3_point method_id =
    let sc = Workload.Scenario.with_batch bench_scenario (128 * 1024) in
    Test.make ~name:(Printf.sprintf "fig3/method-%s" (Dispatch.Methods.to_string method_id))
      (Staged.stage @@ fun () ->
       let r = Dispatch.Runner.run sc ~method_id ~keys ~queries in
       assert (r.Dispatch.Run_result.validation_errors = 0))
  in
  let test_fig3 =
    Test.make_grouped ~name:"fig3"
      (List.map fig3_point Dispatch.Methods.all)
  in
  let test_hier_point =
    let sc =
      Workload.Scenario.with_batch
        (Workload.Scenario.with_nodes 13 bench_scenario)
        (128 * 1024)
    in
    Test.make ~name:"extension/method-C3-hier"
      (Staged.stage @@ fun () ->
       let r =
         Dispatch.Runner.run ~routers:2 sc ~method_id:Dispatch.Methods.C3
           ~keys ~queries
       in
       assert (r.Dispatch.Run_result.validation_errors = 0))
  in
  let test_table3 =
    Test.make ~name:"table3/model-predictions"
      (Staged.stage @@ fun () ->
       let sc = bench_scenario in
       let shape = Dispatch.Experiment.model_shape sc ~keys in
       let p = sc.Workload.Scenario.params in
       ignore (Model.Predict.method_a p shape ~normalize_nodes:11);
       ignore
         (Model.Predict.method_b p shape
            ~group_levels:(Dispatch.Experiment.group_height sc ~keys)
            ~batch_keys:32768 ~normalize_nodes:11);
       ignore
         (Model.Predict.method_c3 p sc.Workload.Scenario.net ~slave_keys:32768
            ~n_masters:1 ~n_slaves:10))
  in
  let test_fig4 =
    Test.make ~name:"fig4/trend-model"
      (Staged.stage @@ fun () ->
       ignore (Dispatch.Experiment.fig4 ~years:5 bench_spec))
  in
  let test_serve =
    Test.make ~name:"serve/open-loop-B-C3"
      (Staged.stage @@ fun () ->
       ignore
         (Dispatch.Experiment.run_grid serve_spec
            (Dispatch.Experiment.serve ~loads:[] serve_spec)))
  in
  Test.make_grouped ~name:"paper"
    [ test_table1; test_table2; test_fig3; test_table3; test_fig4;
      test_hier_point; test_serve ]

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing *)

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare

let print_results results =
  let tbl =
    Report.Table.create ~headers:[ "benchmark"; "time/run"; "r^2" ]
  in
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Simcore.Simtime.to_string t
        | _ -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      Report.Table.add_row tbl [ name; time; r2 ])
    results;
  print_string (Report.Table.render tbl)

let run_benchmarks ~jobs =
  print_endline "===== microbenchmarks (bechamel) =====";
  print_results (benchmark (micro_tests ~jobs));
  print_endline "\n===== paper-artefact benchmarks (bechamel) =====";
  print_results (benchmark (artefact_tests ()))

(* ------------------------------------------------------------------ *)
(* Entry point *)

open Cmdliner

let save_baseline_arg =
  let doc =
    "Run the baseline sweep (CI scenario, every method, 8 KB / 128 KB / \
     1 MB batches, plus the ci-serve open-loop serving cell) and save \
     its simulated costs to $(docv); commit the file to promote a new \
     baseline.  Skips the benchmarks."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "save-baseline" ] ~docv:"FILE" ~doc)

let check_baseline_arg =
  let doc =
    "Re-run the baseline sweep and compare bit-for-bit against the \
     committed $(docv); exits 1 on any drift.  Skips the benchmarks.  \
     Run via `dune build @bench-baseline` in CI."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "check-baseline" ] ~docv:"FILE" ~doc)

let throughput_arg =
  let doc =
    "Measure host wall-clock simulator throughput (simulated queries/sec \
     and engine events/sec, fig3 grid + ci-serve saturation scenario), \
     append a labelled sample to the trajectory artifact $(docv) \
     (created when missing) and print the trajectory with per-cell \
     speedups.  Skips the benchmarks."
  in
  Arg.(
    value & opt (some string) None & info [ "throughput" ] ~docv:"FILE" ~doc)

let throughput_label_arg =
  let doc = "Label for the sample appended by --throughput." in
  Arg.(
    value
    & opt string "measured"
    & info [ "throughput-label" ] ~docv:"LABEL" ~doc)

let throughput_smoke_arg =
  let doc =
    "Validate the committed throughput trajectory $(docv) (JSON schema), \
     run one reduced measurement per cell family and compare against the \
     trajectory's last sample.  The comparison is advisory: warnings \
     only, never a failing exit — wall-clock numbers flake on noisy \
     hosts.  Run via `dune build @bench-throughput` in CI."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "throughput-smoke" ] ~docv:"FILE" ~doc)

let run_throughput ~path ~label =
  let sample = Bench_harness.Throughput.measure ~label () in
  ignore (Bench_harness.Throughput.append ~path sample);
  (* Also append a reduced-scale companion under the smoke key
     namespace: it is what `--throughput-smoke` (the @bench-throughput
     alias) compares freshly measured smoke cells against, so promoting
     a trajectory entry re-baselines the CI advisory in the same
     commit. *)
  let smoke =
    Bench_harness.Throughput.measure ~smoke:true ~label:(label ^ "-smoke") ()
  in
  let trajectory = Bench_harness.Throughput.append ~path smoke in
  print_string (Bench_harness.Throughput.render_trajectory trajectory);
  Printf.printf "wrote %s\n" path;
  0

let run_throughput_smoke ~path =
  match Bench_harness.Throughput.load path with
  | Error e ->
      Printf.eprintf "bench: invalid throughput trajectory: %s\n" e;
      1
  | Ok trajectory ->
      Printf.printf "%s: schema OK, %d sample%s\n" path
        (List.length trajectory)
        (if List.length trajectory = 1 then "" else "s");
      let current = Bench_harness.Throughput.measure ~smoke:true ~label:"smoke" () in
      print_string (Bench_harness.Throughput.render_sample current);
      (* Compare against the most recent sample that has comparable
         (same-key) cells — normally the committed smoke sample. *)
      let comparable (s : Bench_harness.Throughput.sample) =
        List.exists
          (fun (c : Bench_harness.Throughput.cell) ->
            List.exists
              (fun (sc : Bench_harness.Throughput.cell) -> sc.key = c.key)
              s.cells)
          current.cells
      in
      (match List.find_opt comparable (List.rev trajectory) with
      | None ->
          Printf.printf
            "advisory: no sample with comparable cells in trajectory\n"
      | Some reference ->
          let warnings = Bench_harness.Throughput.advisory ~reference ~current in
          if warnings = [] then
            Printf.printf "advisory: OK vs %S (threshold %.0f%%)\n"
              reference.Bench_harness.Throughput.label
              (100.0 *. Bench_harness.Throughput.advisory_threshold)
          else List.iter print_endline warnings);
      0

let main jobs save check throughput throughput_label throughput_smoke =
  match (save, check, throughput, throughput_smoke) with
  | Some _, Some _, _, _ ->
      prerr_endline
        "bench: --save-baseline and --check-baseline are mutually exclusive";
      2
  | _, _, Some _, Some _ ->
      prerr_endline
        "bench: --throughput and --throughput-smoke are mutually exclusive";
      2
  | _, _, Some path, None -> run_throughput ~path ~label:throughput_label
  | _, _, None, Some path -> run_throughput_smoke ~path
  | Some path, None, None, None ->
      let spec = Bench_harness.Baseline.default_spec ~jobs in
      Bench_harness.Baseline.save ~path ~spec (Bench_harness.Baseline.capture ~spec);
      Printf.printf "wrote %s\n" path;
      0
  | None, Some path, None, None ->
      let spec = Bench_harness.Baseline.default_spec ~jobs in
      let drifts = Bench_harness.Baseline.check ~path ~spec in
      print_endline (Bench_harness.Baseline.render_drift drifts);
      if drifts = [] then 0 else 1
  | None, None, None, None ->
      run_benchmarks ~jobs;
      0

let () =
  let info =
    Cmd.info "bench" ~version:"1.0.0"
      ~doc:
        "Benchmark harness for the index-over-CPU-caches reproduction: \
         Bechamel microbenchmarks, per-artefact timings, the \
         simulated-cost baseline gate and the host throughput trajectory."
  in
  let term =
    Term.(
      const main $ Cli.jobs_arg $ save_baseline_arg $ check_baseline_arg $ throughput_arg
      $ throughput_label_arg $ throughput_smoke_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
