(* Command-line driver that regenerates every table and figure of the
   paper, plus the ablation studies.  `repro --help` lists subcommands.

   All subcommands share one Spec-producing term ({!Cli.spec_term},
   shared with the bench harness): every flag folds into a single
   Dispatch.Experiment.Spec.t, so adding a new flag is a matter of
   declaring its Arg in [Cli] and one line in its [build]. *)

open Cmdliner
module Spec = Dispatch.Experiment.Spec

let spec_term = Cli.spec_term
let csv_arg = Cli.csv_arg
let say fmt = Format.printf (fmt ^^ "@.")

(* Output files are written before this check, so a failed validation
   still leaves the evidence on disk. *)
let check_validation runs =
  let bad =
    List.filter (fun (_, r) -> r.Dispatch.Run_result.validation_errors > 0) runs
  in
  if bad <> [] then begin
    List.iter
      (fun (label, r) ->
        Printf.eprintf "repro: ERROR: %d validation error%s in run %s\n"
          r.Dispatch.Run_result.validation_errors
          (if r.Dispatch.Run_result.validation_errors = 1 then "" else "s")
          label)
      bad;
    Printf.eprintf
      "repro: simulated results disagree with the reference oracle; output \
       above is not trustworthy\n";
    exit 3
  end

let labelled runs =
  List.map (fun r -> (Dispatch.Telemetry.run_label r, r)) runs

(* One line per degraded run: the table renderers keep the paper's
   column layout, so failover accounting goes to its own summary. *)
let print_degraded runs =
  List.iter
    (fun (label, r) ->
      let d = r.Dispatch.Run_result.degraded in
      if Dispatch.Run_result.is_degraded d then
        say
          "degraded %s: retries=%d redispatches=%d fallback=%d lost=%d \
           dead=[%s] completeness=%.6f"
          label d.Dispatch.Run_result.retries d.Dispatch.Run_result.redispatches
          d.Dispatch.Run_result.fallback_lookups
          d.Dispatch.Run_result.lost_queries
          (String.concat ","
             (List.map string_of_int d.Dispatch.Run_result.dead_nodes))
          (Dispatch.Run_result.completeness r))
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
  Result.iter_error refuse (Dispatch.Observe.check ~honours spec.Spec.observe)

(* The tail every run-producing subcommand shares: degraded-run lines,
   the session's terminal readings and files, then the oracle verdict. *)
let finish spec ~generator runs =
  print_degraded runs;
  print_string (Dispatch.Observe.report spec.Spec.observe runs);
  List.iter (say "wrote %s")
    (Dispatch.Observe.export spec.Spec.observe ~generator
       ~fields:
         (Dispatch.Telemetry.manifest_fields ~faults:spec.Spec.faults
            (Spec.scenario spec) ~methods:spec.Spec.methods
            ~batches:spec.Spec.batches)
       runs);
  check_validation runs

(* Every grid subcommand: refuse what it cannot honour or lay out, run
   its cells, print the scenario and the rows, then the shared tail. *)
let run_grid spec ~generator grid print =
  observing spec ~honours:batch_clauses;
  match Dispatch.Experiment.run_grid spec (grid spec) with
  | Error msg -> refuse msg
  | Ok (rows, runs) ->
      say "%a@\n" Workload.Scenario.pp (Spec.scenario spec);
      print rows;
      finish spec ~generator runs

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let run_table1 spec =
  observing spec ~honours:[];
  say "%a@\n" Workload.Scenario.pp (Spec.scenario spec);
  say "Table 1: the index structure setup@\n@\n%s"
    (Report.Table.render (Dispatch.Experiment.table1 spec))

let run_table2 spec =
  observing spec ~honours:[];
  say "Table 2: parameters measured on the simulated cluster@\n@\n%s"
    (Report.Table.render (Dispatch.Experiment.table2 spec))

let run_table3 spec =
  run_grid spec ~generator:"repro table3" Dispatch.Experiment.table3
    (fun rows ->
      print_string
        (Dispatch.Experiment.render_table3 ~scenario:(Spec.scenario spec)
           rows))

let run_fig3 spec csv =
  run_grid spec ~generator:"repro fig3" Dispatch.Experiment.fig3 (fun rows ->
      print_string
        (Dispatch.Experiment.render_fig3 ~scenario:(Spec.scenario spec) rows);
      match csv with
      | None -> ()
      | Some path ->
          (* Degraded columns appear only under --faults, so fault-free
             CSV output stays byte-identical to pre-fault builds. *)
          let faulted = Spec.faulted spec in
          let header =
            Dispatch.Run_result.header
            @ if faulted then Dispatch.Run_result.degraded_header else []
          in
          let cells r =
            Dispatch.Run_result.to_cells r
            @ if faulted then Dispatch.Run_result.degraded_cells r else []
          in
          Report.Csv.save ~path ~header
            (List.concat_map
               (fun { Dispatch.Experiment.results; _ } ->
                 List.map cells results)
               rows);
          say "wrote %s" path)

let run_fig4 spec years =
  observing spec ~honours:[];
  say "%a@\n" Workload.Scenario.pp (Spec.scenario spec);
  print_string
    (Dispatch.Experiment.render_fig4 (Dispatch.Experiment.fig4 ~years spec))

(* Only `serve` (methods A and B) and `ablation updates` run an update
   stream; every other subcommand refuses --updates as a usage error
   rather than run without it. *)
let updates_refusal =
  "--updates applies only to `serve` (methods A and B) and `ablation \
   updates`"

let static spec run =
  if Spec.dynamic spec then `Error (true, updates_refusal) else `Ok (run ())

(* The dynamic-index study exports per-cell results (base columns plus
   dyn.* update accounting) — it gets the full run treatment the other
   ablation tables don't need. *)
let run_ablation_updates spec csv =
  observing spec ~honours:batch_clauses;
  let sc = Spec.scenario spec in
  say "%a@\n" Workload.Scenario.pp sc;
  let tbl, rows = Dispatch.Ablation.updates spec in
  say "ablation updates:@\n@\n%s" (Report.Table.render tbl);
  let faulted = Spec.faulted spec in
  (match csv with
  | None -> ()
  | Some path ->
      let header =
        ("updates" :: Dispatch.Run_result.header)
        @ Dispatch.Dynamic.stats_header
        @ (if faulted then Dispatch.Run_result.degraded_header else [])
      in
      let cells (u, r, st) =
        (Workload.Mutation.to_string u :: Dispatch.Run_result.to_cells r)
        @ Dispatch.Dynamic.stats_cells st
        @
        if faulted then Dispatch.Run_result.degraded_cells r else []
      in
      Report.Csv.save ~path ~header (List.map cells rows);
      say "wrote %s" path);
  let runs =
    List.map
      (fun (u, r, _) ->
        ( Printf.sprintf "u=%g %s" u.Workload.Mutation.ratio
            (Dispatch.Telemetry.run_label r),
          r ))
      rows
  in
  finish spec ~generator:"repro ablation updates" runs

let run_ablation spec which csv =
  let grid g =
    run_grid spec ~generator:("repro ablation " ^ which) g (fun t ->
        say "ablation %s:@\n@\n%s" which (Report.Table.render t));
    `Ok ()
  in
  match String.lowercase_ascii which with
  | "updates" ->
      run_ablation_updates spec csv;
      `Ok ()
  | _ when Spec.dynamic spec -> `Error (true, updates_refusal)
  | "batch-overhead" -> grid (fun spec -> Dispatch.Ablation.batch_overhead spec)
  | "network" -> grid Dispatch.Ablation.network
  | "skew" -> grid (fun spec -> Dispatch.Ablation.skew spec)
  | "masters" -> grid Dispatch.Ablation.masters
  | "linesize" | "line-size" -> grid Dispatch.Ablation.line_size
  | "slave-structure" -> grid Dispatch.Ablation.slave_structure
  | "hierarchy" -> grid Dispatch.Ablation.hierarchy
  | "structures" ->
      observing spec ~honours:[];
      let t = Dispatch.Ablation.structures spec in
      say "%a@\n" Workload.Scenario.pp (Spec.scenario spec);
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
    | m :: _ when spec.Spec.methods <> Dispatch.Methods.all -> m
    | _ -> Dispatch.Methods.C3
  in
  say "%a@\n" Workload.Scenario.pp (Spec.scenario spec);
  let rendered, r = Dispatch.Experiment.timeline_traced ~method_id spec in
  print_string rendered;
  let runs = labelled [ r ] in
  finish spec ~generator:"repro timeline" runs

(* Open-loop serving with SLO accounting.  One run per method at the
   spec's offered load, or a load sweep when --loads is given. *)
let run_serve spec csv loads =
  observing spec ~honours:("timeline" :: batch_clauses);
  let sc = Spec.scenario spec in
  say "%a@\n" Workload.Scenario.pp sc;
  let reports =
    match loads with
    | [] -> Dispatch.Serve.run spec
    | loads -> Dispatch.Serve.load_sweep spec ~loads
  in
  print_string (Dispatch.Serve.render ~scenario:sc reports);
  (match csv with
  | None -> ()
  | Some path ->
      Report.Csv.save ~path ~header:Dispatch.Run_result.serving_header
        (List.map
           (fun { Dispatch.Serve.run; serving } ->
             Dispatch.Run_result.serving_cells run serving)
           reports);
      say "wrote %s" path);
  finish spec ~generator:"repro serve"
    (labelled (List.map (fun r -> r.Dispatch.Serve.run) reports))

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

let table1_cmd = cmd_of "table1" "Reproduce Table 1 (index structure setup)." run_table1
let table2_cmd = cmd_of "table2" "Reproduce Table 2 (measured machine parameters)." run_table2
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
        (const (fun spec years -> static spec (fun () -> run_fig4 spec years))
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
             runs, so it honours no clause and ignores $(b,--faults).")
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
    Arg.(
      value
      & opt (list ~sep:',' float) []
      & info [ "loads" ] ~docv:"QPS,..." ~doc)
  in
  (* Serving applies --updates to the replicated methods only; the C
     family's dynamic runs are batch runs, under `ablation updates`. *)
  let run spec csv loads =
    if
      (not (Workload.Mutation.is_none spec.Spec.updates))
      && List.exists Dispatch.Methods.is_distributed spec.Spec.methods
    then
      `Error
        ( true,
          "--updates serves methods A and B only (use `repro ablation \
           updates` for the C family)" )
    else `Ok (run_serve spec csv loads)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Online serving: open-loop arrivals (--arrival, --offered-load, \
          --duration, --clients) through each method with SLO accounting \
          (--slo).")
    Term.(ret (const run $ spec_term $ csv_arg $ loads))

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
