(* Command-line driver that regenerates every table and figure of the
   paper, plus the ablation studies.  `repro --help` lists subcommands.

   Each subcommand builds its Spec-producing term ({!Cli.term}) from
   the flags it reads, with its own defaults: a flag it does not read is
   unknown to Cmdliner and exits 124 before anything runs. *)

open Cmdliner
open Dispatch
module Spec = Experiment.Spec

let say fmt = Format.printf (fmt ^^ "@.")

(* Output files are written before this check, so a failed validation
   still leaves the evidence on disk. *)
let check_validation runs =
  let bad = List.filter (fun (_, r) -> r.Run_result.validation_errors > 0) runs in
  if bad <> [] then begin
    List.iter
      (fun (label, r) ->
        Printf.eprintf "repro: ERROR: %d validation error%s in run %s\n"
          r.Run_result.validation_errors
          (if r.Run_result.validation_errors = 1 then "" else "s")
          label)
      bad;
    Printf.eprintf
      "repro: simulated results disagree with the reference oracle; output \
       above is not trustworthy\n";
    exit 3
  end

(* One line per degraded run: the table renderers keep the paper's
   column layout, so failover accounting goes to its own summary. *)
let print_degraded runs =
  List.iter
    (fun (label, r) ->
      let d = r.Run_result.degraded in
      if Run_result.is_degraded d then
        say
          "degraded %s: retries=%d redispatches=%d fallback=%d lost=%d \
           dead=[%s] completeness=%.6f"
          label d.Run_result.retries d.Run_result.redispatches
          d.Run_result.fallback_lookups d.Run_result.lost_queries
          (String.concat "," (List.map string_of_int d.Run_result.dead_nodes))
          (Run_result.completeness r))
    runs

(* [f] of each run, without repeats, in order of first appearance. *)
let firsts f runs =
  List.fold_left
    (fun acc (_, r) -> if List.mem (f r) acc then acc else acc @ [ f r ])
    [] runs

(* The tail every run-producing subcommand shares: degraded-run lines,
   the session's terminal readings and files (the manifest lists the
   methods and batch sizes that ran), then the oracle verdict. *)
let finish spec ~generator runs =
  print_degraded runs;
  print_string (Observe.report spec.Spec.observe runs);
  List.iter (say "wrote %s")
    (Observe.export spec.Spec.observe ~generator
       ~fields:
         (Telemetry.manifest_fields ~faults:spec.Spec.faults
            spec.Spec.scenario
            ~methods:(firsts (fun r -> r.Run_result.method_id) runs)
            ~batches:(firsts (fun r -> r.Run_result.batch_bytes) runs))
       runs);
  check_validation runs

(* Every grid subcommand: refuse a grid that cannot run with cmdliner's
   usage-error code (124), before anything runs; else run its cells,
   print the scenario and the rows, then the shared tail. *)
let run_grid spec ~generator grid print =
  match Experiment.run_grid spec (grid spec) with
  | Error msg ->
      Printf.eprintf "repro: %s\n" msg;
      exit Cmd.Exit.cli_error
  | Ok (rows, runs) ->
      say "%a@\n" Workload.Scenario.pp spec.Spec.scenario;
      print rows;
      finish spec ~generator runs

(* Writes [--csv], when given. *)
let save_csv csv ~header rows =
  Option.iter
    (fun path ->
      Report.Csv.save ~path ~header rows;
      say "wrote %s" path)
    csv

(* The degraded CSV columns, under --faults only, so fault-free CSV
   output stays byte-identical to pre-fault builds. *)
let degraded_columns spec =
  if Spec.faulted spec then (Run_result.degraded_header, Run_result.degraded_cells)
  else ([], fun _ -> [])

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let run_table1 spec =
  say "%a@\n" Workload.Scenario.pp spec.Spec.scenario;
  say "Table 1: the index structure setup@\n@\n%s"
    (Report.Table.render (Experiment.table1 spec))

let run_table2 spec =
  say "Table 2: parameters measured on the simulated cluster@\n@\n%s"
    (Report.Table.render (Experiment.table2 spec))

let run_table3 spec =
  run_grid spec ~generator:"repro table3" Experiment.table3 (fun rows ->
      print_string (Experiment.render_table3 ~scenario:spec.Spec.scenario rows))

let run_fig3 spec csv =
  run_grid spec ~generator:"repro fig3" Experiment.fig3 (fun rows ->
      print_string (Experiment.render_fig3 ~scenario:spec.Spec.scenario rows);
      let header, cells = degraded_columns spec in
      save_csv csv ~header:(Run_result.header @ header)
        (List.concat_map
           (fun { Experiment.results; _ } ->
             List.map (fun r -> Run_result.to_cells r @ cells r) results)
           rows))

let run_fig4 spec years =
  say "%a@\n" Workload.Scenario.pp spec.Spec.scenario;
  print_string (Experiment.render_fig4 (Experiment.fig4 ~years spec))

(* The dynamic-index study also exports per-cell results: the updates
   spec, the run columns and the dyn.* update accounting. *)
let run_updates spec csv =
  run_grid spec ~generator:"repro ablation updates" Ablation.updates
    (fun (tbl, rows) ->
      say "ablation updates:@\n@\n%s" (Report.Table.render tbl);
      let header, cells = degraded_columns spec in
      save_csv csv
        ~header:(("updates" :: Run_result.header) @ Dynamic.stats_header @ header)
        (List.map
           (fun (u, r, st) ->
             (Workload.Mutation.to_string u :: Run_result.to_cells r)
             @ Dynamic.stats_cells st @ cells r)
           rows))

let run_structures spec =
  say "%a@\n" Workload.Scenario.pp spec.Spec.scenario;
  say "ablation structures:@\n@\n%s"
    (Report.Table.render (Ablation.structures spec))

(* The timeline traces one run, of the spec's one method. *)
let run_timeline spec =
  let method_id = List.hd spec.Spec.methods in
  say "%a@\n" Workload.Scenario.pp spec.Spec.scenario;
  let rendered, r = Experiment.timeline_traced ~method_id spec in
  print_string rendered;
  finish spec ~generator:"repro timeline" [ (Telemetry.run_label r, r) ]

(* Open-loop serving with SLO accounting.  One run per method at the
   spec's offered load, or a load sweep when --loads is given. *)
let run_serve spec csv loads =
  run_grid spec ~generator:"repro serve" (Experiment.serve ~loads)
    (fun reports ->
      print_string (Serve.render ~scenario:spec.Spec.scenario reports);
      save_csv csv ~header:Run_result.serving_header
        (List.map
           (fun { Serve.run; serving } -> Run_result.serving_cells run serving)
           reports))

let run_all spec =
  run_table1 spec;
  run_table2 spec;
  run_fig3 spec None;
  run_table3 spec;
  run_fig4 spec 5

(* ------------------------------------------------------------------ *)
(* Command wiring: each subcommand's term holds the flags it reads. *)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

(* The scenario flags of a simulating subcommand, and the flags of
   every grid of runs. *)
let scenario = Cli.[ keys; queries; nodes; masters; batch; network; seed ]
let runs = Cli.[ jobs; observe ~timeline:false; faults ]

let table1_cmd =
  cmd "table1" "Reproduce Table 1 (index structure setup)."
    Term.(const run_table1 $ Cli.(term ~always_c:true [ keys; nodes ]))

let table2_cmd =
  cmd "table2" "Reproduce Table 2 (measured machine parameters)."
    Term.(const run_table2 $ Cli.(term [ network ]))

let table3_cmd =
  cmd "table3" "Reproduce Table 3 (model vs simulation)."
    Term.(const run_table3 $ Cli.term ~always_c:true (scenario @ runs))

let fig3_cmd =
  (* Cmdliner reads an unambiguous prefix of a long flag as that flag, so
     fig3 must name --batch to refuse it, or --batch 64 would mean
     --batches 64.  The help does not list it. *)
  let no_batch =
    Term.(
      term_result' ~usage:true
        (const (function
           | None -> Ok Fun.id
           | Some _ -> Error "fig3 sweeps --batches, not --batch")
        $ Arg.(value & opt (some string) None & info [ "batch" ] ~docs:Manpage.s_none)))
  in
  cmd "fig3" "Reproduce Figure 3 (search time vs batch size)."
    Term.(
      const run_fig3
      $ Cli.(
          term
            ([ keys; queries; nodes; masters; network; seed;
               methods Methods.all; sweep_batches; no_batch ]
            @ runs))
      $ Cli.csv_arg)

let fig4_cmd =
  let years = Arg.(value & opt Cli.count 5 & info [ "years" ] ~doc:"Horizon in years.") in
  cmd "fig4" "Reproduce Figure 4 (future technology trends)."
    Term.(
      const run_fig4
      $ Cli.(term ~always_c:true [ keys; nodes; batch; network ])
      $ years)

let ablation_cmd =
  let study name doc flags grid =
    let run spec =
      run_grid spec ~generator:("repro ablation " ^ name) grid (fun t ->
          say "ablation %s:@\n@\n%s" name (Report.Table.render t))
    in
    cmd name doc Term.(const run $ Cli.term ~always_c:true (flags @ runs))
  in
  Cmd.group
    (Cmd.info "ablation" ~doc:"Run an ablation study.")
    [
      study "batch-overhead" "C-3 slave idle and messages vs batch size."
        Cli.[ keys; queries; nodes; masters; network; seed ]
        (fun spec -> Ablation.batch_overhead spec);
      study "network" "C-3 under each network profile at several batch sizes."
        Cli.[ keys; queries; nodes; masters; seed ]
        Ablation.network;
      study "skew" "C-3 and B under Zipf-skewed query keys." scenario
        (fun spec -> Ablation.skew spec);
      study "masters" "C-3 with 1, 2 and 4 masters over --nodes minus one slaves."
        Cli.[ keys; queries; nodes; batch; network; seed ]
        Ablation.masters;
      study "linesize" "A and C-3 on 32-byte and 128-byte cache lines."
        scenario Ablation.line_size;
      study "slave-structure" "C-1, C-2 and C-3 with per-variant cache counts."
        scenario Ablation.slave_structure;
      study "hierarchy" "Flat, multi-master and router-tree dispatch tiers."
        Cli.[ keys; queries; nodes; batch; network; seed ]
        Ablation.hierarchy;
      cmd "structures" "Per-lookup cost of each index structure on one machine."
        Term.(
          const run_structures
          $ Cli.(term ~always_c:true [ keys; nodes; masters; seed; jobs ]));
      cmd "updates" "Update/query interference: update ratio x method x batch."
        Term.(
          const run_updates
          $ Cli.(
              term
                (scenario
                @ [ methods Methods.[ A; B; C3 ]; update_batches; updates ]
                @ runs))
          $ Cli.csv_arg);
    ]

let timeline_cmd =
  cmd "timeline" "Gantt chart of per-node busy time for one method."
    Term.(
      const run_timeline
      $ Cli.(
          term
            (scenario
            @ [ one_method Methods.C3; observe ~timeline:false; faults ])))

let serve_cmd =
  let loads =
    let doc =
      "Comma-separated offered loads (queries per second) to sweep; each \
       rescales the arrival process.  Without it, one run per method at \
       the spec's own load."
    in
    Arg.(
      value
      & opt (list ~sep:',' Cli.positive) []
      & info [ "loads" ] ~docv:"QPS,..." ~doc)
  in
  cmd "serve"
    "Online serving: open-loop arrivals (--arrival, --offered-load, \
     --duration, --clients) through each method with SLO accounting \
     (--slo)."
    Term.(
      const run_serve
      $ Cli.(
          term
            [ keys; nodes; masters; batch; network; seed; duration;
              offered_load; clients; arrival; slo; updates;
              methods Methods.all; jobs; observe ~timeline:true; faults ])
      $ Cli.csv_arg $ loads)

let all_cmd =
  cmd "all" "Run every table and figure in sequence."
    Term.(
      const run_all
      $ Cli.(
          term ~always_c:true
            (scenario @ [ methods Methods.all; sweep_batches; jobs; faults ])))

let () =
  let info =
    Cmd.info "repro" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'Fast Query Processing by Distributing an Index \
         over CPU Caches' (Ma & Cooperman, CLUSTER 2005) on a simulated \
         cluster."
  in
  let group =
    Cmd.group info
      [ table1_cmd; table2_cmd; table3_cmd; fig3_cmd; fig4_cmd; ablation_cmd;
        timeline_cmd; serve_cmd; all_cmd ]
  in
  exit (Cmd.eval group)
