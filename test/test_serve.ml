(* Tests for the online serving mode: arrival-stream determinism, the
   Serve driver's jobs-invariance (byte-identical SLO reports at any
   worker count), fault composition (crashed-node serve) and the Spec
   builder guards behind `repro serve`. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
module Spec = Dispatch.Experiment.Spec

let parse_exn s =
  match Workload.Arrival.parse s with
  | Ok a -> a
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

(* ------------------------------------------------------------------ *)
(* Arrival generation *)

let sorted a =
  let ok = ref true in
  Array.iteri (fun i t -> if i > 0 && t < a.(i - 1) then ok := false) a;
  !ok

let in_horizon ~duration_ns a =
  Array.for_all (fun t -> t >= 0.0 && t < duration_ns) a

let test_generate_deterministic () =
  List.iter
    (fun spec ->
      let a = parse_exn spec in
      let gen () =
        Workload.Arrival.generate a ~seed:42 ~clients:4 ~duration_ns:1e6
      in
      let x = gen () and y = gen () in
      check_bool (spec ^ " deterministic") true (x = y);
      check_bool (spec ^ " sorted") true (sorted x);
      check_bool (spec ^ " in horizon") true (in_horizon ~duration_ns:1e6 x);
      check_bool (spec ^ " nonempty") true (Array.length x > 0))
    [
      "poisson:rate=1e6";
      "mmpp:rate=1e6,burst=4,on=1e5,off=3e5";
      "diurnal:rate=1e6,peak=3,period=5e5";
    ]

let test_generate_seed_and_clients_sensitive () =
  let a = Workload.Arrival.poisson 1e6 in
  let g ~seed ~clients =
    Workload.Arrival.generate a ~seed ~clients ~duration_ns:1e6
  in
  check_bool "seed sensitive" true (g ~seed:1 ~clients:4 <> g ~seed:2 ~clients:4);
  check_bool "clients sensitive" true
    (g ~seed:1 ~clients:1 <> g ~seed:1 ~clients:8)

(* The --offered-load override rescales any process to the asked-for
   time-average rate; the arrival count over a long horizon agrees. *)
let test_scale_to_hits_offered_load () =
  List.iter
    (fun spec ->
      let a =
        Workload.Arrival.scale_to (parse_exn spec) ~offered_qps:2e6
      in
      (match Workload.Arrival.base_rate_qps a with
      | Some r ->
          check_bool (spec ^ " avg rate") true (Float.abs (r -. 2e6) < 1e-6)
      | None -> Alcotest.failf "%s: no base rate" spec);
      let n =
        Array.length
          (Workload.Arrival.generate a ~seed:7 ~clients:8 ~duration_ns:1e7)
      in
      (* 2e6 qps over 10 ms = 20_000 expected; allow 5 sigma. *)
      check_bool
        (Printf.sprintf "%s count %d near 20000" spec n)
        true
        (n > 19_000 && n < 21_000))
    [
      "poisson:rate=1e6";
      "mmpp:rate=1e6,burst=4,on=1e5,off=3e5";
      "diurnal:rate=1e6,peak=3,period=5e5";
    ]

let test_replay_roundtrip () =
  let path = Filename.temp_file "arrival" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "# comment\n300.5\n100\n200\n9e9\n");
      let a = parse_exn ("replay:path=" ^ path) in
      let got =
        Workload.Arrival.generate a ~seed:0 ~clients:3 ~duration_ns:1e6
      in
      (* Sorted, comment skipped, 9e9 truncated by the horizon. *)
      check_bool "replay" true (got = [| 100.0; 200.0; 300.5 |]))

let test_replay_errors () =
  check_bool "missing file" true
    (match
       Workload.Arrival.generate
         (parse_exn "replay:path=/nonexistent/trace")
         ~seed:0 ~clients:1 ~duration_ns:1e6
     with
    | _ -> false
    | exception Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Serve driver *)

let serve_sc =
  Workload.Scenario.ci
  |> Workload.Scenario.with_duration 2e6
  |> Workload.Scenario.with_clients 4

let serve_spec =
  Spec.default
  |> Spec.with_scenario serve_sc
  |> Spec.with_methods [ Dispatch.Methods.A; Dispatch.Methods.B; Dispatch.Methods.C3 ]
  |> Spec.with_arrival (Workload.Arrival.poisson 2e5)
  |> Spec.with_slo 1e6

let test_serve_reports_sane () =
  let reports = Dispatch.Serve.run serve_spec in
  check_int "one report per method" 3 (List.length reports);
  List.iter
    (fun { Dispatch.Serve.run; serving } ->
      check_bool "serving attached" true (run.Dispatch.Run_result.serving <> None);
      check_bool "arrived > 0" true (serving.Dispatch.Run_result.arrived > 0);
      check_bool "completed all (no faults)" true
        (serving.Dispatch.Run_result.completed
        = serving.Dispatch.Run_result.arrived);
      check_int "validated" 0 run.Dispatch.Run_result.validation_errors;
      let s = serving in
      check_bool "quantiles ordered" true
        (s.Dispatch.Run_result.p50_ns <= s.Dispatch.Run_result.p95_ns
        && s.Dispatch.Run_result.p95_ns <= s.Dispatch.Run_result.p99_ns
        && s.Dispatch.Run_result.p99_ns <= s.Dispatch.Run_result.max_ns);
      check_bool "response >= queue" true
        (s.Dispatch.Run_result.mean_ns >= s.Dispatch.Run_result.mean_queue_ns))
    reports

(* The SLO report must be byte-identical at any worker count: the CSV
   lines (what @serve-smoke pins down) compare equal across jobs.  The
   second input serves C-3 from two masters, each dealt every other
   arrival: all answers validate, every query crosses the wire exactly
   twice (its key to a slave, its rank back), and the whole report is
   identical at jobs 1 and 2. *)
let test_serve_jobs_invariant () =
  let two_masters =
    serve_spec
    |> Spec.with_scenario (Workload.Scenario.with_masters 2 serve_sc)
    |> Spec.with_methods [ Dispatch.Methods.C3 ]
  in
  List.iter
    (fun spec ->
      let lines jobs =
        Dispatch.Serve.csv_lines (Dispatch.Serve.run (Spec.with_jobs jobs spec))
      in
      let j1 = lines 1 in
      check_bool "jobs 1 = 2" true (j1 = lines 2);
      check_bool "jobs 1 = 4" true (j1 = lines 4))
    [ serve_spec; two_masters ];
  match
    ( Dispatch.Serve.run two_masters,
      Dispatch.Serve.run (Spec.with_jobs 2 two_masters) )
  with
  | [ ({ Dispatch.Serve.run; serving } as r1) ], [ r2 ] ->
      check_int "two masters validated" 0
        run.Dispatch.Run_result.validation_errors;
      check_int "a key and a rank per query"
        (2 * serving.Dispatch.Run_result.arrived
        * serve_sc.Workload.Scenario.params.Cachesim.Mem_params.word_bytes)
        run.Dispatch.Run_result.bytes_sent;
      check_bool "two masters report jobs 1 = 2" true (Stdlib.compare r1 r2 = 0)
  | _ -> Alcotest.fail "expected one report per run"

(* Dynamic serving: method A over a log-structured Segments replica with
   updates interleaved into the arrival stream.  Every answer is
   validated online against the replayed dynamic oracle (the index
   moves, so the static post-run peek cannot), all queries complete,
   and the SLO report stays byte-identical at any worker count.
   Methods B and C-3 must reject a dynamic stream rather than silently
   serve stale answers. *)
let test_serve_dynamic () =
  let updates =
    match Workload.Mutation.parse "mix:ratio=0.2,inserts=0.6" with
    | Ok u -> u
    | Error e -> Alcotest.failf "updates: %s" e
  in
  let spec =
    serve_spec
    |> Spec.with_methods [ Dispatch.Methods.A ]
    |> Spec.with_updates updates
  in
  (match Dispatch.Serve.run spec with
  | [ { Dispatch.Serve.run; serving } ] ->
      check_int "validated online" 0 run.Dispatch.Run_result.validation_errors;
      check_bool "completed all" true
        (serving.Dispatch.Run_result.completed
        = serving.Dispatch.Run_result.arrived)
  | _ -> Alcotest.fail "expected one report");
  let lines jobs =
    Dispatch.Serve.csv_lines (Dispatch.Serve.run (Spec.with_jobs jobs spec))
  in
  let j1 = lines 1 in
  check_bool "dynamic jobs 1 = 2" true (j1 = lines 2);
  check_bool "dynamic jobs 1 = 4" true (j1 = lines 4);
  match
    Dispatch.Serve.run (Spec.with_methods [ Dispatch.Methods.B ] spec)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "serve B accepted a dynamic stream"

(* QCheck form of the jobs invariance, aimed at the epoch-parallel
   methods: across random offered loads, the whole report — Run_result
   (cache counters, latency moments, metrics snapshot) plus the serving
   rollup — compares structurally equal at jobs 1, 2 and 4.  This is
   stronger than the CSV gate above: it pins every per-node accumulator
   the node-ordered merge touches, not just the rendered columns. *)
let prop_parallel_epochs_reproduce_sequential =
  QCheck.Test.make ~name:"parallel node epochs = sequential at jobs 1/2/4"
    ~count:4
    QCheck.(pair (int_range 50 400) bool)
    (fun (rate_kqps, use_b) ->
      let arrival =
        Workload.Arrival.poisson (1e3 *. float_of_int rate_kqps)
      in
      let method_id =
        if use_b then Dispatch.Methods.B else Dispatch.Methods.A
      in
      let keys, queries, arrivals, _ops =
        Dispatch.Serve.workload serve_sc ~arrival
      in
      let report jobs =
        Dispatch.Serve.run_method ~jobs serve_sc ~arrival ~slo_ns:1e6
          ~method_id ~keys ~queries ~arrivals
      in
      let r1 = report 1 in
      Stdlib.compare r1 (report 2) = 0 && Stdlib.compare r1 (report 4) = 0)

(* Serving composes with fault injection: a mid-run slave crash degrades
   the run (lost or fallback-answered queries) but never produces a
   wrong rank, and every lost query counts as an SLO violation. *)
let test_serve_with_crash () =
  let faults =
    match Fault.Spec.parse "crash:node=3,at=5e5" with
    | Ok f -> f
    | Error e -> Alcotest.failf "faults: %s" e
  in
  let spec =
    serve_spec
    |> Spec.with_methods [ Dispatch.Methods.C3 ]
    |> Spec.with_faults faults
  in
  match Dispatch.Serve.run spec with
  | [ { Dispatch.Serve.run; serving } ] ->
      check_int "validated" 0 run.Dispatch.Run_result.validation_errors;
      let lost =
        serving.Dispatch.Run_result.arrived
        - serving.Dispatch.Run_result.completed
      in
      check_bool "completed <= arrived" true (lost >= 0);
      check_bool "lost are violations" true
        (serving.Dispatch.Run_result.violations >= lost);
      check_bool "degraded accounting" true
        (Dispatch.Run_result.completeness run <= 1.0)
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_serve_render () =
  let reports = Dispatch.Serve.run serve_spec in
  let text = Dispatch.Serve.render ~scenario:serve_sc reports in
  List.iter
    (fun needle ->
      check_bool (needle ^ " in render") true (contains text needle))
    [ "Online serving"; "SLO"; "p99_ns"; "violation_rate" ];
  check_int "csv lines = header + rows" 4
    (List.length (Dispatch.Serve.csv_lines reports))

(* ------------------------------------------------------------------ *)
(* Timelines *)

let timeline_of run =
  match run.Dispatch.Run_result.timeline with
  | Some t -> t
  | None -> Alcotest.fail "timeline missing despite --timeline"

let test_timeline_recorded () =
  let spec = Spec.with_timeline "-" serve_spec in
  let reports = Dispatch.Serve.run spec in
  check_int "one report per method" 3 (List.length reports);
  List.iter
    (fun { Dispatch.Serve.run; serving } ->
      let t = timeline_of run in
      (* Default window = horizon / 32, pre-extended over the horizon. *)
      check_bool "32 windows cover the horizon" true
        (Array.length t.Obs.Series.windows >= 32);
      check_float "window width" (2e6 /. 32.0) t.Obs.Series.window_ns;
      let sum f = Array.fold_left (fun a w -> a + f w) 0 t.Obs.Series.windows in
      check_int "offered sums to arrivals" serving.Dispatch.Run_result.arrived
        (sum (fun w -> w.Obs.Series.offered));
      check_int "completed sums to deliveries"
        serving.Dispatch.Run_result.completed
        (sum (fun w -> w.Obs.Series.completed));
      check_bool "no fault events without faults" true
        (t.Obs.Series.events = []);
      check_bool "busy lanes recorded" true (Obs.Series.lanes t <> []))
    reports;
  let text = Dispatch.Serve.render_timeline reports in
  List.iter
    (fun needle ->
      check_bool (needle ^ " in render") true (contains text needle))
    [ "timeline"; "offered_qps"; "queue_depth"; "burn_rate" ];
  let total_windows =
    List.fold_left
      (fun acc { Dispatch.Serve.run; _ } ->
        acc + Array.length (timeline_of run).Obs.Series.windows)
      0 reports
  in
  check_int "csv: header + one row per (method, window)" (1 + total_windows)
    (List.length (Dispatch.Serve.timeline_csv_lines reports))

let test_timeline_off_by_default () =
  List.iter
    (fun { Dispatch.Serve.run; _ } ->
      check_bool "no timeline without the flag" true
        (run.Dispatch.Run_result.timeline = None))
    (Dispatch.Serve.run serve_spec);
  check_bool "render empty" true
    (Dispatch.Serve.render_timeline (Dispatch.Serve.run serve_spec) = "")

(* A mid-run crash is pinned, as an instant event, to the window its
   fault-plan time falls in, and the window series shows the failover
   traffic (redispatches/fallbacks/losses) at or after that window. *)
let test_timeline_crash_pinned () =
  let faults =
    match Fault.Spec.parse "crash:node=3,at=5e5" with
    | Ok f -> f
    | Error e -> Alcotest.failf "faults: %s" e
  in
  let spec =
    serve_spec
    |> Spec.with_methods [ Dispatch.Methods.C3 ]
    |> Spec.with_faults faults
    |> Spec.with_timeline "-"
  in
  match Dispatch.Serve.run spec with
  | [ { Dispatch.Serve.run; _ } ] ->
      let t = timeline_of run in
      let crash =
        List.filter
          (fun e -> contains e.Obs.Series.label "crash:node=3")
          t.Obs.Series.events
      in
      (match crash with
      | [ e ] -> check_float "crash at its plan time" 5e5 e.Obs.Series.at_ns
      | es -> Alcotest.failf "expected 1 crash event, got %d" (List.length es));
      let crash_w = int_of_float (5e5 /. t.Obs.Series.window_ns) in
      let post =
        Array.fold_left
          (fun acc w ->
            if w.Obs.Series.index >= crash_w then
              acc + w.Obs.Series.redispatches + w.Obs.Series.fallbacks
              + w.Obs.Series.lost + w.Obs.Series.retries
            else acc)
          0 t.Obs.Series.windows
      and pre =
        Array.fold_left
          (fun acc w ->
            if w.Obs.Series.index < crash_w then
              acc + w.Obs.Series.redispatches + w.Obs.Series.fallbacks
              + w.Obs.Series.lost
            else acc)
          0 t.Obs.Series.windows
      in
      check_bool "failover traffic after the crash" true (post > 0);
      check_int "no failover traffic before the crash" 0 pre
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

(* Timelines are cut in simulated time only, so the CSV export is
   byte-identical at any worker count — same rule the dune
   @runtest-parallel gate enforces end-to-end through the binary. *)
let test_timeline_jobs_invariant () =
  let lines jobs =
    Dispatch.Serve.timeline_csv_lines
      (Dispatch.Serve.run
         (serve_spec
         |> Spec.with_methods [ Dispatch.Methods.B; Dispatch.Methods.C3 ]
         |> Spec.with_timeline "-"
         |> Spec.with_jobs jobs))
  in
  let j1 = lines 1 in
  check_bool "jobs 1 = 2" true (j1 = lines 2);
  check_bool "jobs 1 = 4" true (j1 = lines 4)

(* Cold/warm split: the two phases partition the deliveries, and the
   split point follows the timeline window width. *)
let test_cold_warm_split () =
  List.iter
    (fun { Dispatch.Serve.serving = s; _ } ->
      check_float "cold ends after 4 default windows" (2e6 /. 8.0)
        s.Dispatch.Run_result.cold_until_ns;
      check_int "phases partition deliveries"
        s.Dispatch.Run_result.completed
        (s.Dispatch.Run_result.cold_completed
        + s.Dispatch.Run_result.warm_completed);
      check_bool "cold quantiles ordered" true
        (s.Dispatch.Run_result.cold_p50_ns <= s.Dispatch.Run_result.cold_p95_ns
        && s.Dispatch.Run_result.cold_p95_ns
           <= s.Dispatch.Run_result.cold_p99_ns);
      check_bool "warm quantiles ordered" true
        (s.Dispatch.Run_result.warm_p50_ns <= s.Dispatch.Run_result.warm_p95_ns
        && s.Dispatch.Run_result.warm_p95_ns
           <= s.Dispatch.Run_result.warm_p99_ns))
    (Dispatch.Serve.run serve_spec);
  check_int "serving cells match header width"
    (List.length Dispatch.Run_result.serving_header)
    (match Dispatch.Serve.run serve_spec with
    | { Dispatch.Serve.run; serving } :: _ ->
        List.length (Dispatch.Run_result.serving_cells run serving)
    | [] -> -1)

(* The serve driver feeds the profiler's tail inspector with a
   queueing-vs-service breakdown for each kept slow query. *)
let test_tail_breakdown () =
  let spec = Spec.with_profile serve_spec in
  List.iter
    (fun { Dispatch.Serve.run; _ } ->
      match run.Dispatch.Run_result.profile with
      | None -> Alcotest.fail "profile missing despite Spec.profile"
      | Some p ->
          let worst = Obs.Tail.worst (Obs.Profile.tail p) in
          check_bool "tail kept slow queries" true (worst <> []);
          List.iter
            (fun (e : Obs.Tail.entry) ->
              let part name = List.assoc_opt name e.Obs.Tail.breakdown in
              match (part "queue", part "service") with
              | Some q, Some s ->
                  check_bool "parts nonnegative" true (q >= 0.0 && s >= 0.0);
                  check_bool "queue + service = response" true
                    (Float.abs (q +. s -. e.Obs.Tail.ns) < 1e-6)
              | _ -> Alcotest.fail "queue/service breakdown missing")
            worst)
    (Dispatch.Serve.run spec)

(* ------------------------------------------------------------------ *)
(* Spec builder guards *)

let test_spec_guards () =
  check_bool "with_slo rejects 0" true
    (match Spec.with_slo 0.0 Spec.default with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "with_slo rejects negative" true
    (match Spec.with_slo (-1.0) Spec.default with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let spec = Spec.with_arrival (parse_exn "mmpp:rate=2e5") Spec.default in
  check_bool "with_arrival stored" true
    (Workload.Arrival.to_string spec.Spec.arrival
    = "mmpp:rate=200000,burst=8,on=1e06,off=9e06");
  check_bool "timelining off by default" false (Spec.timelining Spec.default);
  check_bool "timelining on with a base" true
    (Spec.timelining (Spec.with_timeline "-" Spec.default));
  check_bool "with_timeline_window rejects 0" true
    (match Spec.with_timeline_window 0.0 Spec.default with
    | _ -> false
    | exception Invalid_argument _ -> true)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "serve"
    [
      ( "arrival",
        [
          tc "deterministic" `Quick test_generate_deterministic;
          tc "seed/clients sensitive" `Quick
            test_generate_seed_and_clients_sensitive;
          tc "scale_to" `Quick test_scale_to_hits_offered_load;
          tc "replay roundtrip" `Quick test_replay_roundtrip;
          tc "replay errors" `Quick test_replay_errors;
        ] );
      ( "driver",
        [
          tc "reports sane" `Quick test_serve_reports_sane;
          tc "jobs invariant" `Quick test_serve_jobs_invariant;
          tc "dynamic serving" `Quick test_serve_dynamic;
          tc "crash smoke" `Quick test_serve_with_crash;
          tc "render" `Quick test_serve_render;
          tc "cold/warm split" `Quick test_cold_warm_split;
          tc "tail queue/service breakdown" `Quick test_tail_breakdown;
        ] );
      ( "timeline",
        [
          tc "recorded on demand" `Quick test_timeline_recorded;
          tc "off by default" `Quick test_timeline_off_by_default;
          tc "crash pinned to its window" `Quick test_timeline_crash_pinned;
          tc "jobs invariant" `Quick test_timeline_jobs_invariant;
        ] );
      ("spec", [ tc "builder guards" `Quick test_spec_guards ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_parallel_epochs_reproduce_sequential ] );
    ]
