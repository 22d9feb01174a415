(* Benchmark harness: one Bechamel test per paper artefact (Tables 1-3,
   Figures 3-4) plus microbenchmarks of the index structures and the
   simulation substrates.  After the timing pass it regenerates and prints
   the paper-shaped rows/series at bench scale, so the output doubles as a
   quick-look reproduction of the evaluation section.

   Flags are Cmdliner terms shared with `repro` (see {!Cli}), so unknown
   flags are errors and `bench --help` documents everything.  Two
   baseline-gate modes short-circuit the benchmarks entirely:

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
  let test_mpi_collectives =
    Test.make ~name:"mpi/barrier+reduce-8-ranks"
      (Staged.stage @@ fun () ->
       let eng = Simcore.Engine.create () in
       let comm = Netsim.Mpi.create eng Netsim.Profile.myrinet ~ranks:8 in
       for r = 0 to 7 do
         Simcore.Engine.spawn eng (fun () ->
             Netsim.Mpi.barrier comm ~rank:r ~fill:0;
             ignore (Netsim.Mpi.reduce comm ~rank:r ~root:0 ~size:8 ~op:( + ) r))
       done;
       Simcore.Engine.run eng)
  in
  let test_pool_overhead =
    (* Cost of fanning 64 trivial jobs over the pool: the executor's fixed
       overhead, to be compared against a multi-ms simulation job. *)
    Test.make ~name:(Printf.sprintf "exec/pool-64-jobs-%dw" jobs)
      (Staged.stage @@ fun () ->
       ignore
         (Exec.Sweep.map ~jobs ~f:(fun i -> i * i)
            (List.init 64 (fun i -> i))))
  in
  let test_pool_chunked =
    (* Same fan-out with interleaved chunks of 8: one pool task per
       chunk instead of per cell — the dispatch-overhead regime chunking
       exists for. *)
    Test.make ~name:(Printf.sprintf "exec/pool-64-jobs-chunk8-%dw" jobs)
      (Staged.stage @@ fun () ->
       ignore
         (Exec.Sweep.map ~jobs ~chunk:8 ~f:(fun i -> i * i)
            (List.init 64 (fun i -> i))))
  in
  Test.make_grouped ~name:"micro"
    [ test_sorted_array; test_nary; test_csb; test_buffered;
      test_eytzinger; test_cache_access; test_cache_access_scoped;
      test_engine; test_mpi_collectives; test_pool_overhead;
      test_pool_chunked ]

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
         Dispatch.Method_c_hier.run sc ~routers:2 ~variant:Dispatch.Methods.C3
           ~keys ~queries ()
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
      (Staged.stage @@ fun () -> ignore (Dispatch.Serve.run serve_spec))
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

(* ------------------------------------------------------------------ *)
(* Paper-shaped output at bench scale *)

let print_paper_shapes ~jobs ~faults ~metrics_path ~trace_path ~timeline
    ~timeline_window =
  let keys, _ = Lazy.force workload in
  ignore keys;
  print_endline "\n===== paper artefacts at bench scale =====\n";
  print_endline "--- Table 1 ---";
  print_string
    (Report.Table.render (Dispatch.Experiment.table1 bench_spec));
  print_endline "\n--- Table 2 ---";
  print_string
    (Report.Table.render (Dispatch.Experiment.table2 bench_spec));
  Printf.printf "\n--- Figure 3 (reduced sweep, %d worker domain%s) ---\n"
    jobs (if jobs = 1 then "" else "s");
  let sweep_sc = Workload.Scenario.with_queries (1 lsl 17) bench_scenario in
  let spec =
    Dispatch.Experiment.Spec.default
    |> Dispatch.Experiment.Spec.with_scenario sweep_sc
    |> Dispatch.Experiment.Spec.with_batches
         [ 8 * 1024; 32 * 1024; 128 * 1024; 512 * 1024 ]
    |> Dispatch.Experiment.Spec.with_jobs jobs
    |> (match metrics_path with
       | Some p -> Dispatch.Experiment.Spec.with_metrics p
       | None -> Fun.id)
    |> (match trace_path with
       | Some p -> Dispatch.Experiment.Spec.with_trace p
       | None -> Fun.id)
    |> Dispatch.Experiment.Spec.with_faults faults
  in
  let rows = Dispatch.Experiment.fig3 spec in
  print_string (Dispatch.Experiment.render_fig3 ~scenario:sweep_sc rows);
  let runs =
    List.concat_map
      (fun { Dispatch.Experiment.results; _ } ->
        List.map (fun r -> (Dispatch.Telemetry.run_label r, r)) results)
      rows
  in
  Dispatch.Experiment.emit_telemetry ~spec ~generator:"bench fig3" runs;
  List.iter
    (fun p -> Printf.printf "\nwrote %s\n" p)
    (List.filter_map Fun.id [ metrics_path; trace_path ]);
  print_endline "\n--- Table 3 ---";
  let t3_sc = Workload.Scenario.with_queries (1 lsl 18) bench_scenario in
  let t3_spec =
    Dispatch.Experiment.Spec.default
    |> Dispatch.Experiment.Spec.with_scenario t3_sc
    |> Dispatch.Experiment.Spec.with_jobs jobs
  in
  print_string
    (Dispatch.Experiment.render_table3 ~scenario:t3_sc
       (Dispatch.Experiment.table3 t3_spec));
  print_endline "\n--- Figure 4 ---";
  print_string
    (Dispatch.Experiment.render_fig4 (Dispatch.Experiment.fig4 ~years:5 bench_spec));
  print_endline "\n--- Serving (open loop, bench scale) ---";
  let serve_spec =
    serve_spec
    |> Dispatch.Experiment.Spec.with_jobs jobs
    |> (match timeline with
       | Some b -> Dispatch.Experiment.Spec.with_timeline b
       | None -> Fun.id)
    |> (match timeline_window with
       | Some w -> Dispatch.Experiment.Spec.with_timeline_window w
       | None -> Fun.id)
  in
  let serve_reports = Dispatch.Serve.run serve_spec in
  print_string (Dispatch.Serve.render ~scenario:serve_scenario serve_reports);
  match timeline with
  | None -> ()
  | Some base ->
      let text = Dispatch.Serve.render_timeline serve_reports in
      if text <> "" then begin
        print_newline ();
        print_string text
      end;
      if base <> "-" then begin
        Out_channel.with_open_text (base ^ ".csv") (fun oc ->
            List.iter
              (fun line ->
                output_string oc line;
                output_char oc '\n')
              (Dispatch.Serve.timeline_csv_lines serve_reports));
        let named =
          List.filter_map
            (fun { Dispatch.Serve.run; _ } ->
              Option.map
                (fun t -> (Dispatch.Telemetry.run_label run, t))
                run.Dispatch.Run_result.timeline)
            serve_reports
        in
        Dispatch.Telemetry.write_json (base ^ ".json")
          (Dispatch.Telemetry.timeline_document ~generator:"bench serve"
             ~fields:
               (Dispatch.Telemetry.manifest_fields serve_scenario
                  ~methods:serve_spec.Dispatch.Experiment.Spec.methods
                  ~batches:serve_spec.Dispatch.Experiment.Spec.batches)
             named);
        Printf.printf "\nwrote %s.csv\nwrote %s.json\n" base base
      end

let run_benchmarks ~jobs ~faults ~metrics_path ~trace_path ~timeline
    ~timeline_window =
  print_endline "===== microbenchmarks (bechamel) =====";
  print_results (benchmark (micro_tests ~jobs));
  print_endline "\n===== paper-artefact benchmarks (bechamel) =====";
  print_results (benchmark (artefact_tests ()));
  print_paper_shapes ~jobs ~faults ~metrics_path ~trace_path ~timeline
    ~timeline_window

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
  let sample = Dispatch.Throughput.measure ~label () in
  ignore (Dispatch.Throughput.append ~path sample);
  (* Also append a reduced-scale companion under the smoke key
     namespace: it is what `--throughput-smoke` (the @bench-throughput
     alias) compares freshly measured smoke cells against, so promoting
     a trajectory entry re-baselines the CI advisory in the same
     commit. *)
  let smoke =
    Dispatch.Throughput.measure ~smoke:true ~label:(label ^ "-smoke") ()
  in
  let trajectory = Dispatch.Throughput.append ~path smoke in
  print_string (Dispatch.Throughput.render_trajectory trajectory);
  Printf.printf "wrote %s\n" path;
  0

let run_throughput_smoke ~path =
  match Dispatch.Throughput.load path with
  | Error e ->
      Printf.eprintf "bench: invalid throughput trajectory: %s\n" e;
      1
  | Ok trajectory ->
      Printf.printf "%s: schema OK, %d sample%s\n" path
        (List.length trajectory)
        (if List.length trajectory = 1 then "" else "s");
      let current = Dispatch.Throughput.measure ~smoke:true ~label:"smoke" () in
      print_string (Dispatch.Throughput.render_sample current);
      (* Compare against the most recent sample that has comparable
         (same-key) cells — normally the committed smoke sample. *)
      let comparable (s : Dispatch.Throughput.sample) =
        List.exists
          (fun (c : Dispatch.Throughput.cell) ->
            List.exists
              (fun (sc : Dispatch.Throughput.cell) -> sc.key = c.key)
              s.cells)
          current.cells
      in
      (match List.find_opt comparable (List.rev trajectory) with
      | None ->
          Printf.printf
            "advisory: no sample with comparable cells in trajectory\n"
      | Some reference ->
          let warnings = Dispatch.Throughput.advisory ~reference ~current in
          if warnings = [] then
            Printf.printf "advisory: OK vs %S (threshold %.0f%%)\n"
              reference.Dispatch.Throughput.label
              (100.0 *. Dispatch.Throughput.advisory_threshold)
          else List.iter print_endline warnings);
      0

let main jobs faults metrics_path trace_path timeline timeline_window save
    check throughput throughput_label throughput_smoke =
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
      (* The gate's cells carry their own fault specs (see
         Baseline.capture); --faults does not alter it. *)
      let spec = Dispatch.Baseline.default_spec ~jobs in
      Dispatch.Baseline.save ~path ~spec (Dispatch.Baseline.capture ~spec);
      Printf.printf "wrote %s\n" path;
      0
  | None, Some path, None, None ->
      let spec = Dispatch.Baseline.default_spec ~jobs in
      let drifts = Dispatch.Baseline.check ~path ~spec in
      print_endline (Dispatch.Baseline.render_drift drifts);
      if drifts = [] then 0 else 1
  | None, None, None, None ->
      run_benchmarks ~jobs ~faults ~metrics_path ~trace_path ~timeline
        ~timeline_window;
      0

let () =
  let info =
    Cmd.info "bench" ~version:"1.0.0"
      ~doc:
        "Benchmark harness for the index-over-CPU-caches reproduction: \
         Bechamel microbenchmarks, per-artefact timings, paper-shaped \
         output at bench scale, and the simulated-cost baseline gate."
  in
  let term =
    Term.(
      const main $ Cli.jobs_arg $ Cli.faults_arg $ Cli.metrics_arg
      $ Cli.trace_json_arg $ Cli.timeline_arg $ Cli.timeline_window_arg
      $ save_baseline_arg $ check_baseline_arg $ throughput_arg
      $ throughput_label_arg $ throughput_smoke_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
