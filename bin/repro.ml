(* Command-line driver that regenerates every table and figure of the
   paper, plus the ablation studies.  `repro --help` lists subcommands.

   All subcommands share one Spec-producing term ({!Cli.spec_term},
   shared with the bench harness): every flag folds into a single
   Dispatch.Experiment.Spec.t, so adding a new flag is a matter of
   declaring its Arg in [Cli] and one line in its [build]. *)

open Cmdliner
open Dispatch
module Spec = Experiment.Spec

let spec_term = Cli.spec_term
let csv_arg = Cli.csv_arg
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

(* A usage error found once the command line has parsed: it exits with
   cmdliner's own code (124), before anything runs. *)
let refuse msg =
  Printf.eprintf "repro: %s\n" msg;
  exit Cmd.Exit.cli_error

(* The observation clauses a run-producing subcommand honours; any
   other clause is a usage error. *)
let batch_clauses = [ "metrics"; "trace"; "profile"; "scope" ]

let observing spec ~honours =
  Result.iter_error refuse (Observe.check ~honours spec.Spec.observe)

(* table1, table2, fig4 and `ablation structures` simulate no run, so
   they honour no observation clause and refuse --faults rather than
   ignore it.  `all` passes its faults on to fig3 and table3. *)
let simulates_nothing spec ~name =
  observing spec ~honours:[];
  if Spec.faulted spec then
    refuse (Printf.sprintf "%s simulates no run, so --faults does not apply" name)

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

(* Every grid subcommand: refuse what it cannot honour (a timeline only
   for a grid of serving cells) or lay out, run its cells, print the
   scenario and the rows, then the shared tail. *)
let run_grid spec ~generator grid print =
  let g = grid spec in
  let serving c = c.Experiment.source <> Experiment.Batch in
  observing spec
    ~honours:
      (if List.exists serving g.Experiment.cells then
         "timeline" :: batch_clauses
       else batch_clauses);
  match Experiment.run_grid spec g with
  | Error msg -> refuse msg
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

(* Only `serve` (methods A and B) and `ablation updates` run an update
   stream; every other subcommand refuses --updates as a usage error
   rather than run without it. *)
let updates_refusal =
  "--updates applies only to `serve` (methods A and B) and `ablation \
   updates`"

let static spec run =
  if Spec.dynamic spec then `Error (true, updates_refusal) else `Ok (run ())

(* The dynamic-index study also exports per-cell results: the updates
   spec, the run columns and the dyn.* update accounting. *)
let print_updates spec csv (tbl, rows) =
  say "ablation updates:@\n@\n%s" (Report.Table.render tbl);
  let header, cells = degraded_columns spec in
  save_csv csv
    ~header:(("updates" :: Run_result.header) @ Dynamic.stats_header @ header)
    (List.map
       (fun (u, r, st) ->
         (Workload.Mutation.to_string u :: Run_result.to_cells r)
         @ Dynamic.stats_cells st @ cells r)
       rows)

let run_ablation spec which csv =
  let grid g =
    run_grid spec ~generator:("repro ablation " ^ which) g (fun t ->
        say "ablation %s:@\n@\n%s" which (Report.Table.render t));
    `Ok ()
  in
  match String.lowercase_ascii which with
  | "updates" ->
      run_grid spec ~generator:"repro ablation updates" Ablation.updates
        (print_updates spec csv);
      `Ok ()
  | _ when Spec.dynamic spec -> `Error (true, updates_refusal)
  | "batch-overhead" -> grid (fun spec -> Ablation.batch_overhead spec)
  | "network" -> grid Ablation.network
  | "skew" -> grid (fun spec -> Ablation.skew spec)
  | "masters" -> grid Ablation.masters
  | "linesize" | "line-size" -> grid Ablation.line_size
  | "slave-structure" -> grid Ablation.slave_structure
  | "hierarchy" -> grid Ablation.hierarchy
  | "structures" ->
      simulates_nothing spec ~name:"ablation structures";
      let t = Ablation.structures spec in
      say "%a@\n" Workload.Scenario.pp spec.Spec.scenario;
      say "ablation %s:@\n@\n%s" which (Report.Table.render t);
      `Ok ()
  | _ ->
      `Error
        ( false,
          Printf.sprintf
            "unknown ablation %S (batch-overhead | network | skew | masters \
             | linesize | slave-structure | structures | hierarchy | updates)"
            which )

let run_timeline spec =
  observing spec ~honours:batch_clauses;
  (* C-3 unless --methods narrows the set; the timeline traces one run. *)
  let method_id =
    match spec.Spec.methods with
    | m :: _ when spec.Spec.methods <> Methods.all -> m
    | _ -> Methods.C3
  in
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
  observing spec ~honours:[];
  run_table1 spec;
  run_table2 spec;
  run_fig3 spec None;
  run_table3 spec;
  run_fig4 spec 5

(* ------------------------------------------------------------------ *)
(* Command wiring *)

let cmd_of name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const (fun spec -> static spec (fun () -> f spec)) $ spec_term))

let table1_cmd =
  cmd_of "table1" "Reproduce Table 1 (index structure setup)." (fun spec ->
      simulates_nothing spec ~name:"table1";
      run_table1 spec)

let table2_cmd =
  cmd_of "table2" "Reproduce Table 2 (measured machine parameters)."
    (fun spec ->
      simulates_nothing spec ~name:"table2";
      run_table2 spec)

let table3_cmd = cmd_of "table3" "Reproduce Table 3 (model vs simulation)." run_table3

let fig3_cmd =
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Figure 3 (search time vs batch size).")
    Term.(
      ret
        (const (fun spec csv -> static spec (fun () -> run_fig3 spec csv))
        $ spec_term $ csv_arg))

let fig4_cmd =
  let years =
    Arg.(value & opt int 5 & info [ "years" ] ~docv:"YEARS" ~doc:"Horizon in years.")
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Reproduce Figure 4 (future technology trends).")
    Term.(
      ret
        (const (fun spec years ->
             static spec (fun () ->
                 simulates_nothing spec ~name:"fig4";
                 run_fig4 spec years))
        $ spec_term $ years))

let ablation_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            "One of: batch-overhead, network, skew, masters, linesize, \
             slave-structure, structures, hierarchy, updates.  Every study \
             but $(b,structures) simulates runs and honours the metrics, \
             trace, profile and scope clauses of $(b,--observe) and \
             $(b,--faults); $(b,structures) times single machines, not \
             runs, so it honours no clause and refuses $(b,--faults).")
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run an ablation study.")
    Term.(ret (const run_ablation $ spec_term $ which $ csv_arg))

let timeline_cmd =
  cmd_of "timeline"
    "Gantt chart of per-node busy time for one method (default C-3)."
    run_timeline

let serve_cmd =
  let loads =
    let doc =
      "Comma-separated offered loads (queries per second) to sweep; each \
       rescales the arrival process.  Without it, one run per method at \
       the spec's own load."
    in
    Arg.(value & opt (list ~sep:',' float) [] & info [ "loads" ] ~docv:"QPS,..." ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Online serving: open-loop arrivals (--arrival, --offered-load, \
          --duration, --clients) through each method with SLO accounting \
          (--slo).")
    Term.(const run_serve $ spec_term $ csv_arg $ loads)

let all_cmd = cmd_of "all" "Run every table and figure in sequence." run_all

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
