(* Tests for the cost-attribution profiler: charging/canonical-fold
   semantics, the bit-for-bit conservation invariant across every
   method driver, tail-query inspection, worker-count determinism of
   rendered profiles, and the benchmark baseline gate. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

module Spec = Dispatch.Experiment.Spec

(* Run a driver's grid; every spec here lays out. *)
let grid driver spec =
  fst (Result.get_ok (Dispatch.Experiment.run_grid spec (driver spec)))

(* ------------------------------------------------------------------ *)
(* Profile unit semantics *)

let test_charge_and_entries () =
  let p = Obs.Profile.create () in
  Obs.Profile.charge p ~path:[ "lookup"; "cpu" ] 2.0;
  Obs.Profile.charge p ~path:[ "lookup"; "cpu" ] 3.0;
  Obs.Profile.charge p ~path:[ "dispatch"; "cpu" ] 1.0;
  (match Obs.Profile.entries p with
  | [ a; b ] ->
      (* Canonical order: sorted by path. *)
      check_bool "dispatch first" true (a.Obs.Profile.path = [ "dispatch"; "cpu" ]);
      check_bool "lookup second" true (b.Obs.Profile.path = [ "lookup"; "cpu" ]);
      Alcotest.(check (float 0.0)) "accumulates" 5.0 b.Obs.Profile.ns;
      check_int "events counted" 2 b.Obs.Profile.events
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es));
  (* Reserved and empty paths are rejected. *)
  check_bool "empty path rejected" true
    (try
       Obs.Profile.charge p ~path:[] 1.0;
       false
     with Invalid_argument _ -> true);
  check_bool "residual path reserved" true
    (try
       Obs.Profile.charge p ~path:[ "(unattributed)" ] 1.0;
       false
     with Invalid_argument _ -> true)

let test_conservation_synthetic () =
  (* The hard case: attributed busy time several times the makespan
     (heavy parallel overlap), so the residual's magnitude exceeds the
     total and its ulp is coarser than the total's — the single-float
     residual cannot land exactly and the low-order term must. *)
  let p = Obs.Profile.create () in
  Obs.Profile.charge p ~path:[ "lookup"; "cpu" ] 3.0780012345e6;
  Obs.Profile.charge p ~path:[ "lookup"; "ram_random" ] 0.1234567891e6;
  Obs.Profile.charge p ~path:[ "batch_xfer"; "net_bandwidth" ] 1.9e6;
  Obs.Profile.charge p ~path:[ "reply"; "net_bandwidth" ] 1.9000000017e6;
  Obs.Profile.charge p ~path:[ "dispatch"; "cpu" ] 1.2e6;
  check_bool "not finalized yet" false (Obs.Profile.finalized p);
  check_bool "not conserved before finalize" false (Obs.Profile.conserved p);
  let total = 2302630.4958392079 in
  Obs.Profile.finalize p ~total_ns:total;
  check_bool "finalized" true (Obs.Profile.finalized p);
  check_bool "conserved bit-for-bit" true (Obs.Profile.conserved p);
  check_bool "attributed equals total exactly" true
    (Obs.Profile.attributed_ns p = total);
  check_bool "residual negative (overlap)" true (Obs.Profile.residual_ns p < 0.0);
  check_bool "double finalize rejected" true
    (try
       Obs.Profile.finalize p ~total_ns:total;
       false
     with Invalid_argument _ -> true);
  (* Wait-dominated case: positive residual. *)
  let q = Obs.Profile.create () in
  Obs.Profile.charge q ~path:[ "lookup"; "cpu" ] 1.0;
  Obs.Profile.finalize q ~total_ns:10.0;
  check_bool "positive residual conserved" true (Obs.Profile.conserved q);
  Alcotest.(check (float 0.0)) "residual is the wait" 9.0 (Obs.Profile.residual_ns q);
  (* Degenerate: no charges at all. *)
  let z = Obs.Profile.create () in
  Obs.Profile.finalize z ~total_ns:0.0;
  check_bool "empty profile conserved" true (Obs.Profile.conserved z)

let test_render_and_folded () =
  let p = Obs.Profile.create ~tail_k:2 () in
  Obs.Profile.charge p ~path:[ "lookup"; "cpu" ] 700.0;
  Obs.Profile.charge p ~path:[ "lookup"; "l2 hit" ] 200.0;
  Obs.Profile.finalize p ~total_ns:1000.0;
  let r = Obs.Profile.render ~label:"unit" p in
  let contains s sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "label shown" true (contains r "unit");
  check_bool "phase row" true (contains r "lookup");
  check_bool "residual row" true (contains r "(unattributed)");
  let folded = Obs.Profile.folded_lines ~prefix:"run 0" p in
  check_int "three stacks (two leaves + residual)" 3 (List.length folded);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no count in %S" line
      | Some i ->
          let frames = String.sub line 0 i in
          let count = String.sub line (i + 1) (String.length line - i - 1) in
          check_bool "frames have no spaces" false (String.contains frames ' ');
          check_bool "integer count" true (int_of_string_opt count <> None))
    folded;
  check_bool "prefix frame sanitized" true
    (List.for_all (fun l -> String.length l > 6 && String.sub l 0 6 = "run_0;") folded)

(* ------------------------------------------------------------------ *)
(* Tail inspector *)

let test_tail () =
  let t = Obs.Tail.create ~k:3 in
  check_bool "anything qualifies when empty" true (Obs.Tail.qualifies t 1.0);
  for i = 1 to 6 do
    Obs.Tail.note t ~id:i ~ns:(float_of_int i) ~batch:1 ~breakdown:[]
  done;
  (match Obs.Tail.worst t with
  | [ a; b; c ] ->
      check_int "slowest first" 6 a.Obs.Tail.id;
      check_int "then 5" 5 b.Obs.Tail.id;
      check_int "then 4" 4 c.Obs.Tail.id
  | l -> Alcotest.failf "expected 3 kept, got %d" (List.length l));
  check_bool "fast query no longer qualifies" false (Obs.Tail.qualifies t 2.0);
  check_bool "slow query qualifies" true (Obs.Tail.qualifies t 100.0);
  (* Ties break towards the earlier query id. *)
  let t = Obs.Tail.create ~k:2 in
  Obs.Tail.note t ~id:9 ~ns:5.0 ~batch:1 ~breakdown:[];
  Obs.Tail.note t ~id:3 ~ns:5.0 ~batch:1 ~breakdown:[];
  Obs.Tail.note t ~id:7 ~ns:5.0 ~batch:1 ~breakdown:[];
  (match Obs.Tail.worst t with
  | [ a; b ] ->
      check_int "earlier id wins tie" 3 a.Obs.Tail.id;
      check_int "next id second" 7 b.Obs.Tail.id
  | _ -> Alcotest.fail "expected 2 kept");
  (* k = 0 disables. *)
  let t0 = Obs.Tail.create ~k:0 in
  check_bool "k=0 never qualifies" false (Obs.Tail.qualifies t0 1e9);
  Obs.Tail.note t0 ~id:0 ~ns:1e9 ~batch:1 ~breakdown:[];
  check_bool "k=0 keeps nothing" true (Obs.Tail.worst t0 = [])

(* ------------------------------------------------------------------ *)
(* End-to-end: conservation for every method driver *)

let small_scenario = Workload.Scenario.with_queries 8192 Workload.Scenario.ci

let profiled_spec =
  Spec.default
  |> Spec.with_scenario small_scenario
  |> Spec.with_batches [ 8 * 1024; 128 * 1024 ]
  |> Spec.with_profile

let runs_of rows =
  List.concat_map
    (fun row -> row.Dispatch.Experiment.results)
    rows

let test_every_method_conserved () =
  (* Observe.record already fails loudly on a conservation violation;
     this re-checks the invariant on each returned profile and that the
     expected phases actually got charged. *)
  let rows = grid Dispatch.Experiment.fig3 profiled_spec in
  let runs = runs_of rows in
  check_int "full grid ran" (2 * List.length Dispatch.Methods.all)
    (List.length runs);
  List.iter
    (fun (r : Dispatch.Run_result.t) ->
      match r.Dispatch.Run_result.profile with
      | None -> Alcotest.fail "profile missing despite Spec.profile"
      | Some p ->
          check_bool "conserved" true (Obs.Profile.conserved p);
          check_bool "attributed = raw bit-for-bit" true
            (Obs.Profile.attributed_ns p = r.Dispatch.Run_result.raw_ns);
          let phases =
            List.sort_uniq compare
              (List.filter_map
                 (fun e ->
                   match e.Obs.Profile.path with ph :: _ -> Some ph | [] -> None)
                 (Obs.Profile.entries p))
          in
          check_bool "lookup phase charged" true (List.mem "lookup" phases);
          (match r.Dispatch.Run_result.method_id with
          | Dispatch.Methods.A | Dispatch.Methods.B -> ()
          | Dispatch.Methods.C1 | Dispatch.Methods.C2 | Dispatch.Methods.C3 ->
              check_bool "dispatch phase charged" true
                (List.mem "dispatch" phases);
              check_bool "batch transfer charged" true
                (List.mem "batch_xfer" phases);
              check_bool "replies charged" true (List.mem "reply" phases)))
    runs

let test_hier_conserved () =
  let sc =
    Workload.Scenario.with_batch
      (Workload.Scenario.with_nodes 8 small_scenario)
      (32 * 1024)
  in
  let keys, queries = Dispatch.Runner.workload sc in
  let p = Obs.Profile.create () in
  let r =
    Obs.Profile.with_recording p (fun () ->
        Dispatch.Runner.run ~routers:2 sc ~method_id:Dispatch.Methods.C3 ~keys
          ~queries)
  in
  check_int "hier run valid" 0 r.Dispatch.Run_result.validation_errors;
  Obs.Profile.finalize p ~total_ns:r.Dispatch.Run_result.raw_ns;
  check_bool "hier conserved" true (Obs.Profile.conserved p);
  let phases =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           match e.Obs.Profile.path with ph :: _ -> Some ph | [] -> None)
         (Obs.Profile.entries p))
  in
  check_bool "router phase charged" true (List.mem "route" phases);
  check_bool "lookup phase charged" true (List.mem "lookup" phases)

let test_tail_in_runs () =
  let rows = grid Dispatch.Experiment.fig3 profiled_spec in
  List.iter
    (fun (r : Dispatch.Run_result.t) ->
      let p = Option.get r.Dispatch.Run_result.profile in
      let worst = Obs.Tail.worst (Obs.Profile.tail p) in
      check_bool "tail populated" true (worst <> []);
      check_bool "tail bounded by k" true (List.length worst <= 8);
      List.iter
        (fun (e : Obs.Tail.entry) ->
          check_bool "breakdown present" true (e.Obs.Tail.breakdown <> []);
          match r.Dispatch.Run_result.method_id with
          | Dispatch.Methods.C1 | Dispatch.Methods.C2 | Dispatch.Methods.C3 ->
              check_bool "queueing component attributed" true
                (List.mem_assoc "queue_and_net" e.Obs.Tail.breakdown)
          | Dispatch.Methods.A | Dispatch.Methods.B ->
              check_bool "cpu component attributed" true
                (List.mem_assoc "cpu" e.Obs.Tail.breakdown))
        worst)
    (runs_of rows)

let test_profiles_deterministic_across_jobs () =
  let render_at jobs =
    let rows =
      grid Dispatch.Experiment.fig3 (Spec.with_jobs jobs profiled_spec)
    in
    let runs =
      List.map
        (fun r -> (Dispatch.Telemetry.run_label r, r))
        (runs_of rows)
    in
    ( Dispatch.Observe.report profiled_spec.Spec.observe runs,
      List.concat_map
        (fun (label, (r : Dispatch.Run_result.t)) ->
          Obs.Profile.folded_lines ~prefix:label
            (Option.get r.Dispatch.Run_result.profile))
        runs )
  in
  let report1, folded1 = render_at 1 in
  let report2, folded2 = render_at 2 in
  check_string "cost trees byte-identical at jobs 1 vs 2" report1 report2;
  check_bool "folded output identical at jobs 1 vs 2" true (folded1 = folded2)

(* ------------------------------------------------------------------ *)
(* Baseline gate *)

let tiny_spec =
  Spec.default
  |> Spec.with_scenario (Workload.Scenario.with_queries 4096 Workload.Scenario.ci)
  |> Spec.with_methods [ Dispatch.Methods.B; Dispatch.Methods.C3 ]
  |> Spec.with_batches [ 32 * 1024 ]

let test_baseline_roundtrip () =
  let entries = Bench_harness.Baseline.capture ~spec:tiny_spec in
  (* Two fig3 grid cells, the three ci-serve serving cells, five
     Method C protocol-variant cells, and three dynamic A/B cells. *)
  check_int "one entry per grid cell" 13 (List.length entries);
  check_int "serving cells keyed under ci-serve" 3
    (List.length
       (List.filter
          (fun (e : Bench_harness.Baseline.entry) ->
            e.Bench_harness.Baseline.scenario = "ci-serve")
          entries));
  let j = Bench_harness.Baseline.to_json ~spec:tiny_spec entries in
  let back =
    Bench_harness.Baseline.of_json
      (Obs.Json.of_string_exn (Obs.Json.to_string j))
  in
  check_bool "JSON round-trip is exact (floats included)" true
    (back = Ok entries)

let test_baseline_no_drift () =
  let entries = Bench_harness.Baseline.capture ~spec:tiny_spec in
  let again = Bench_harness.Baseline.capture ~spec:tiny_spec in
  check_bool "identical sweeps produce no drift" true
    (Bench_harness.Baseline.compare_entries ~expected:entries ~actual:again = [])

let test_baseline_detects_cost_change () =
  (* Perturb one cost parameter (the B2 random-access penalty) and the
     gate must fire: per-key simulated cost is compared exactly. *)
  let entries = Bench_harness.Baseline.capture ~spec:tiny_spec in
  let sc = tiny_spec.Spec.scenario in
  let params =
    {
      sc.Workload.Scenario.params with
      Cachesim.Mem_params.b2_penalty_ns =
        sc.Workload.Scenario.params.Cachesim.Mem_params.b2_penalty_ns +. 5.0;
    }
  in
  let perturbed =
    Spec.with_scenario (Workload.Scenario.with_params params sc) tiny_spec
  in
  let actual = Bench_harness.Baseline.capture ~spec:perturbed in
  let drifts = Bench_harness.Baseline.compare_entries ~expected:entries ~actual in
  check_bool "perturbed cost parameter detected" true (drifts <> []);
  check_bool "drift names a cost field" true
    (List.exists
       (fun (d : Bench_harness.Baseline.drift) ->
         d.Bench_harness.Baseline.field = "per_key_ns"
         || d.Bench_harness.Baseline.field = "raw_ns")
       drifts)

let test_baseline_entry_mismatch () =
  let entries = Bench_harness.Baseline.capture ~spec:tiny_spec in
  let missing = List.tl entries in
  let drifts =
    Bench_harness.Baseline.compare_entries ~expected:entries ~actual:missing
  in
  check_bool "missing run reported" true
    (List.exists
       (fun (d : Bench_harness.Baseline.drift) ->
         d.Bench_harness.Baseline.field = "(entry)")
       drifts);
  let extra =
    Bench_harness.Baseline.compare_entries ~expected:missing ~actual:entries
  in
  check_bool "extra run reported" true
    (List.exists
       (fun (d : Bench_harness.Baseline.drift) ->
         d.Bench_harness.Baseline.field = "(entry)")
       extra)

(* A baseline document without a manifest, or with a manifest of another
   schema version, is refused. *)
let test_codec_rejects_foreign_manifest () =
  let doc ?manifest () =
    Obs.Json.Obj
      ((match manifest with
       | Some m -> [ ("manifest", m) ]
       | None -> [])
      @ [ ("entries", Obs.Json.List []) ])
  in
  let v2 = Obs.Json.Obj [ ("schema_version", Obs.Json.Int 2) ] in
  let v1 =
    Obs.Json.Obj
      [ ("schema_version", Obs.Json.Int Obs.Manifest.schema_version) ]
  in
  let is_error j = Result.is_error (Bench_harness.Baseline.of_json j) in
  check_bool "rejects a missing manifest" true (is_error (doc ()));
  check_bool "rejects schema_version 2" true (is_error (doc ~manifest:v2 ()));
  check_bool "accepts the current schema" false (is_error (doc ~manifest:v1 ()))

let test_committed_artefacts_load () =
  match Bench_harness.Baseline.load "../BENCH_003.json" with
  | Ok entries -> check_int "baseline entries" 26 (List.length entries)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "profile"
    [
      ( "profile",
        [
          Alcotest.test_case "charge/entries semantics" `Quick
            test_charge_and_entries;
          Alcotest.test_case "conservation incl. overlap-heavy case" `Quick
            test_conservation_synthetic;
          Alcotest.test_case "render + folded format" `Quick
            test_render_and_folded;
        ] );
      ( "tail",
        [ Alcotest.test_case "bounded K-slowest semantics" `Quick test_tail ] );
      ( "runs",
        [
          Alcotest.test_case "every method conserved" `Quick
            test_every_method_conserved;
          Alcotest.test_case "hierarchical C conserved" `Quick
            test_hier_conserved;
          Alcotest.test_case "tail inspector populated" `Quick
            test_tail_in_runs;
          Alcotest.test_case "deterministic across jobs" `Quick
            test_profiles_deterministic_across_jobs;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "JSON round-trip exact" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "no drift on identical sweep" `Quick
            test_baseline_no_drift;
          Alcotest.test_case "perturbed cost detected" `Quick
            test_baseline_detects_cost_change;
          Alcotest.test_case "entry set mismatch" `Quick
            test_baseline_entry_mismatch;
          Alcotest.test_case "codec rejects foreign manifests" `Quick
            test_codec_rejects_foreign_manifest;
          Alcotest.test_case "committed artefacts load" `Quick
            test_committed_artefacts_load;
        ] );
    ]
