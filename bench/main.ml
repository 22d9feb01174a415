(* Benchmark harness: Bechamel microbenchmarks of the index structures
   and the simulation substrates, one per-layer host price each.  The
   end-to-end host cost of the simulator is perfbench's job
   (perfbench/README.md), and `repro` renders every table and figure.

   Flags are Cmdliner terms shared with `repro` (see {!Cli}), so unknown
   flags are errors and `bench --help` documents everything.  Two
   baseline-gate modes short-circuit the benchmarks entirely (the gate
   lives in {!Bench_harness.Baseline}):

     bench --save-baseline FILE    capture the gated sweep's simulated
                                   costs (promote an intentional change)
     bench --check-baseline FILE   re-run the sweep and diff bit-for-bit
                                   against the committed file (exit 1 on
                                   any drift) — the @bench-baseline alias *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Shared fixtures (built once, outside the timed regions; lazy so the
   baseline-gate modes never pay for them) *)

let bench_scenario =
  Workload.Scenario.paper
  |> Workload.Scenario.with_name "bench"
  |> Workload.Scenario.with_queries (1 lsl 15)

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
  print_results (benchmark (micro_tests ~jobs))

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

let main jobs save check =
  match (save, check) with
  | Some _, Some _ ->
      prerr_endline
        "bench: --save-baseline and --check-baseline are mutually exclusive";
      2
  | Some path, None ->
      let spec = Bench_harness.Baseline.default_spec ~jobs in
      Bench_harness.Baseline.save ~path ~spec (Bench_harness.Baseline.capture ~spec);
      Printf.printf "wrote %s\n" path;
      0
  | None, Some path ->
      let spec = Bench_harness.Baseline.default_spec ~jobs in
      let drifts = Bench_harness.Baseline.check ~path ~spec in
      print_endline (Bench_harness.Baseline.render_drift drifts);
      if drifts = [] then 0 else 1
  | None, None ->
      run_benchmarks ~jobs;
      0

let () =
  let info =
    Cmd.info "bench" ~version:"1.0.0"
      ~doc:
        "Benchmark harness for the index-over-CPU-caches reproduction: \
         Bechamel microbenchmarks and the simulated-cost baseline gate."
  in
  let term =
    Term.(const main $ Cli.jobs_arg $ save_baseline_arg $ check_baseline_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
