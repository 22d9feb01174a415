(* Tests for the fault-injection layer: spec parsing, plan determinism,
   network non-overtaking under arbitrary fault plans, and the Method C
   failover semantics — a degraded run either returns validated-correct
   ranks or reports the remainder in [degraded], never silently wrong. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Run a driver's grid; every spec here lays out. *)
let grid driver spec =
  fst (Result.get_ok (Dispatch.Experiment.run_grid spec (driver spec)))

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let parse_exn s =
  match Fault.Spec.parse s with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse %S failed: %s" s e

let test_spec_parse () =
  check_bool "none" true (Fault.Spec.parse "none" = Ok Fault.Spec.none);
  check_bool "empty" true (Fault.Spec.parse "" = Ok Fault.Spec.none);
  check_bool "none is_none" true (Fault.Spec.is_none Fault.Spec.none);
  let t = parse_exn "drop:p=0.02+crash:node=4,at=2e6+failover:retries=3" in
  check_bool "drop" true (t.Fault.Spec.drop_p = 0.02);
  check_bool "crash" true (t.Fault.Spec.crashes = [ (4, 2e6) ]);
  check_int "retries" 3 t.Fault.Spec.retries;
  check_bool "not none" true (not (Fault.Spec.is_none t));
  (* Defaults kick in for bare clauses. *)
  let t = parse_exn "drop+dup+delay" in
  check_bool "drop default" true (t.Fault.Spec.drop_p = 0.01);
  check_bool "dup default" true (t.Fault.Spec.dup_p = 0.01);
  check_bool "delay default" true
    (t.Fault.Spec.delay_p = 0.01 && t.Fault.Spec.delay_ns = 1e5);
  let t = parse_exn "slow:node=2+degrade:node=1+seed=7" in
  check_bool "slow default factor" true (t.Fault.Spec.slow = [ (2, 2.0) ]);
  check_bool "degrade node" true
    (t.Fault.Spec.degrade_node = Some 1 && t.Fault.Spec.degrade_factor = 4.0);
  check_bool "seed" true (t.Fault.Spec.seed = Some 7);
  (* Last clause wins per node; crash list stays sorted. *)
  let t = parse_exn "crash:node=5,at=2+crash:node=1,at=9+crash:node=5,at=3" in
  check_bool "crashes sorted, last wins" true
    (t.Fault.Spec.crashes = [ (1, 9.0); (5, 3.0) ])

let test_spec_errors () =
  let rejects s =
    match Fault.Spec.parse s with
    | Ok _ -> Alcotest.failf "accepted malformed %S" s
    | Error _ -> ()
  in
  List.iter rejects
    [
      "bogus";
      "drop:p=2";
      "drop:p=-0.1";
      "drop:q=0.5";
      "crash";
      "crash:at=5";
      "slow:factor=2";
      "slow:node=1,factor=0.5";
      "degrade:factor=0.25";
      "failover:fallback=maybe";
      "seed=x";
      "drop:p";
    ]

(* Random well-formed SPEC strings: parse, render, re-parse — the
   canonical rendering must round-trip exactly. *)
let spec_string_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  let p = map (fun x -> Printf.sprintf "%.6f" x) (float_bound_inclusive 1.0) in
  let node = int_bound 9 in
  let factor = map (fun x -> 1.0 +. x) (float_bound_inclusive 7.0) in
  let clause =
    oneof
      [
        map (Printf.sprintf "drop:p=%s") p;
        map (Printf.sprintf "dup:p=%s") p;
        map2 (Printf.sprintf "delay:p=%s,ns=%d") p (int_range 1 1_000_000);
        map2 (fun n f -> Printf.sprintf "degrade:node=%d,factor=%g" n f)
          node factor;
        map2 (fun n at -> Printf.sprintf "crash:node=%d,at=%d" n at)
          node (int_bound 10_000_000);
        map2 (fun n f -> Printf.sprintf "slow:node=%d,factor=%g" n f)
          node factor;
        map2 (fun r t -> Printf.sprintf "failover:retries=%d,timeout=%d" r t)
          (int_bound 5) (int_range 1 10_000_000);
        map (Printf.sprintf "seed=%d") (int_bound 1_000_000);
      ]
  in
  map (String.concat "+") (list_size (int_range 1 5) clause)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"to_string/parse round-trip" ~count:300
    (QCheck.make ~print:Fun.id spec_string_gen)
    (fun s ->
      match Fault.Spec.parse s with
      | Error _ -> QCheck.assume_fail ()
      | Ok t ->
          if Fault.Spec.is_none t then
            (* Failover/seed knobs without an active fault canonicalize
               to "none": a fault-free run never times out. *)
            Fault.Spec.to_string t = "none"
          else Fault.Spec.parse (Fault.Spec.to_string t) = Ok t)

(* ------------------------------------------------------------------ *)
(* Plan determinism *)

let test_plan_deterministic () =
  let spec = parse_exn "drop:p=0.1+dup:p=0.1+delay:p=0.1,ns=5e4" in
  let stream seed =
    let plan = Fault.Plan.create spec ~seed in
    List.init 200 (fun i ->
        Fault.Plan.on_send plan ~src:0 ~dst:1 ~tag:0 ~size:64
          ~now:(float_of_int i))
  in
  check_bool "same seed, same verdicts" true (stream 7 = stream 7);
  check_bool "spec seed overrides run seed" true
    (let spec' = { spec with Fault.Spec.seed = Some 99 } in
     let s seed =
       let plan = Fault.Plan.create spec' ~seed in
       List.init 50 (fun i ->
           Fault.Plan.on_send plan ~src:0 ~dst:1 ~tag:0 ~size:64
             ~now:(float_of_int i))
     in
     s 1 = s 2);
  (* A plan with p=0 everywhere never injects. *)
  let plan = Fault.Plan.create (parse_exn "crash:node=3,at=1e9") ~seed:1 in
  check_bool "pure-crash plan injects nothing before the crash" true
    (List.init 100 (fun i ->
         Fault.Plan.on_send plan ~src:0 ~dst:1 ~tag:0 ~size:64
           ~now:(float_of_int i))
    |> List.for_all (fun v ->
           (not v.Fault.Plan.drop)
           && (not v.Fault.Plan.duplicate)
           && v.Fault.Plan.extra_delay_ns = 0.0));
  check_bool "crash switches at its timestamp" true
    ((not (Fault.Plan.crashed plan ~node:3 ~now:0.99e9))
    && Fault.Plan.crashed plan ~node:3 ~now:1e9
    && not (Fault.Plan.crashed plan ~node:2 ~now:2e9))

(* ------------------------------------------------------------------ *)
(* Network non-overtaking under faults *)

(* Drive a 2-node network under a random lossy plan: whatever subset of
   the 0->1 stream is delivered, it must arrive in send order
   (duplicates land next to their original, never reordered). *)
let run_lossy_stream spec ~seed ~n =
  let eng = Simcore.Engine.create () in
  let plan = Fault.Plan.create spec ~seed in
  let net =
    Netsim.Network.create ~faults:plan eng Netsim.Profile.myrinet ~nodes:2
  in
  Simcore.Engine.spawn eng (fun () ->
      for i = 0 to n - 1 do
        Netsim.Network.isend net ~src:0 ~dst:1 ~size:64 i
      done);
  let received = ref [] in
  Simcore.Engine.spawn eng (fun () ->
      let continue = ref true in
      while !continue do
        match Netsim.Network.recv_timeout net ~dst:1 ~timeout_ns:1e9 with
        | Some env -> received := env.Netsim.Network.payload :: !received
        | None -> continue := false
      done);
  Simcore.Engine.run eng;
  List.rev !received

let fault_mix_gen : (string * int) QCheck.Gen.t =
  let open QCheck.Gen in
  let p = map (fun x -> Printf.sprintf "%.4f" (x /. 5.0)) (float_bound_inclusive 1.0) in
  let clause =
    oneof
      [
        map (Printf.sprintf "drop:p=%s") p;
        map (Printf.sprintf "dup:p=%s") p;
        map2 (Printf.sprintf "delay:p=%s,ns=%d") p (int_range 1 200_000);
        map (fun f -> Printf.sprintf "degrade:factor=%g" (1.0 +. f))
          (float_bound_inclusive 3.0);
      ]
  in
  pair
    (map (String.concat "+") (list_size (int_range 1 3) clause))
    (int_bound 10_000)

let rec non_decreasing = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> a <= b && non_decreasing rest

let prop_non_overtaking =
  QCheck.Test.make ~name:"non-overtaking under fault plans" ~count:25
    (QCheck.make
       ~print:(fun (s, seed) -> Printf.sprintf "%s (seed %d)" s seed)
       fault_mix_gen)
    (fun (s, seed) ->
      match Fault.Spec.parse s with
      | Error _ -> QCheck.assume_fail ()
      | Ok spec ->
          let got = run_lossy_stream spec ~seed ~n:40 in
          non_decreasing got
          && List.for_all (fun v -> v >= 0 && v < 40) got)

let test_lossless_plan_delivers_all () =
  (* Degrade-only plan: slower wire, but nothing lost or duplicated. *)
  let got = run_lossy_stream (parse_exn "degrade:factor=3") ~seed:5 ~n:30 in
  check_bool "all delivered in order" true (got = List.init 30 Fun.id)

(* ------------------------------------------------------------------ *)
(* Method C under faults *)

let small_sc = Workload.Scenario.with_queries 4096 Workload.Scenario.ci

let workload = lazy (Dispatch.Runner.workload small_sc)

let run_c3 ?faults () =
  let keys, queries = Lazy.force workload in
  Dispatch.Runner.run ?faults small_sc ~method_id:Dispatch.Methods.C3 ~keys
    ~queries

let answered (r : Dispatch.Run_result.t) =
  match
    Obs.Metrics.Snapshot.find r.Dispatch.Run_result.metrics "response_ns"
  with
  | Some (Obs.Metrics.Snapshot.Histogram h) -> h.Obs.Hist.count
  | _ -> Alcotest.fail "response_ns histogram missing"

let test_zero_fault_bit_identical () =
  let base = run_c3 () in
  let none = run_c3 ~faults:Fault.Spec.none () in
  check_bool "--faults none is bit-identical to no faults" true (base = none);
  check_bool "no degradation reported" true
    (not (Dispatch.Run_result.is_degraded none.Dispatch.Run_result.degraded))

(* The small scenario finishes in a few hundred microseconds, so crash
   tests kill the node at 50 us — early enough to strand batches. *)
let test_crash_failover () =
  let r = run_c3 ~faults:(parse_exn "crash:node=3,at=5e4") () in
  let d = r.Dispatch.Run_result.degraded in
  check_int "no validation errors" 0 r.Dispatch.Run_result.validation_errors;
  check_bool "redispatches happened" true (d.Dispatch.Run_result.redispatches > 0);
  check_bool "retries precede redispatch" true (d.Dispatch.Run_result.retries > 0);
  check_bool "node 3 declared dead" true
    (d.Dispatch.Run_result.dead_nodes = [ 3 ]);
  check_bool "fallback answered the dead partition" true
    (d.Dispatch.Run_result.fallback_lookups > 0);
  check_int "nothing lost with local fallback" 0
    d.Dispatch.Run_result.lost_queries;
  check_bool "complete" true (Dispatch.Run_result.completeness r = 1.0);
  check_int "every query answered exactly once" small_sc.Workload.Scenario.n_queries
    (answered r);
  (* Deterministic: an identical degraded run is bit-identical. *)
  let r' = run_c3 ~faults:(parse_exn "crash:node=3,at=5e4") () in
  check_bool "degraded run reproducible" true (r = r')

let test_crash_without_fallback_reports_lost () =
  let r =
    run_c3 ~faults:(parse_exn "crash:node=3,at=5e4+failover:fallback=none") ()
  in
  let d = r.Dispatch.Run_result.degraded in
  check_int "no validation errors" 0 r.Dispatch.Run_result.validation_errors;
  check_bool "queries reported lost" true (d.Dispatch.Run_result.lost_queries > 0);
  check_bool "lost batches counted" true (d.Dispatch.Run_result.lost_batches > 0);
  check_bool "completeness below 1" true
    (Dispatch.Run_result.completeness r < 1.0);
  (* Accounting closes: every query is answered or reported lost. *)
  check_int "answered + lost = total" small_sc.Workload.Scenario.n_queries
    (answered r + d.Dispatch.Run_result.lost_queries)

(* Dynamic index under a mid-run crash: update batches stranded on the
   dead slave are counted lost (a master's static snapshot cannot
   answer post-update queries, so there is no fallback), queries in
   those batches are lost_queries, and every answered query is still
   validated against the dynamic oracle — degraded, never silently
   wrong. *)
let test_dynamic_crash_accounting () =
  let updates =
    match Workload.Mutation.parse "0.2" with
    | Ok u -> u
    | Error e -> Alcotest.failf "updates: %s" e
  in
  let faults = parse_exn "crash:node=3,at=5e4" in
  let r, st =
    Dispatch.Dynamic.run ~faults small_sc ~updates
      ~method_id:Dispatch.Methods.C3
  in
  let d = r.Dispatch.Run_result.degraded in
  check_int "no validation errors" 0 r.Dispatch.Run_result.validation_errors;
  check_bool "node 3 declared dead" true
    (d.Dispatch.Run_result.dead_nodes = [ 3 ]);
  check_bool "queries reported lost" true
    (d.Dispatch.Run_result.lost_queries > 0);
  check_bool "updates reported lost" true
    (st.Dispatch.Dynamic.lost_updates > 0);
  (* Query accounting closes exactly: every query is answered once or
     reported lost, and completeness is that exact ratio. *)
  let n = small_sc.Workload.Scenario.n_queries in
  check_int "answered + lost = total" n
    (answered r + d.Dispatch.Run_result.lost_queries);
  check_bool "completeness exact" true
    (Dispatch.Run_result.completeness r
    = float_of_int (n - d.Dispatch.Run_result.lost_queries) /. float_of_int n);
  (* Update accounting: every update is applied, a charged no-op, or
     lost with its batch.  The sum can exceed the stream total — an
     update the slave applied just before the crash is also counted
     lost when its unacknowledged batch is abandoned (that overlap IS
     the degraded accounting for updates racing a crash) — but it can
     never undercount. *)
  check_bool "no update unaccounted" true
    (st.Dispatch.Dynamic.applied + st.Dispatch.Dynamic.noops
       + st.Dispatch.Dynamic.lost_updates
    >= st.Dispatch.Dynamic.updates);
  check_bool "slave stats never exceed the stream" true
    (st.Dispatch.Dynamic.applied + st.Dispatch.Dynamic.noops
    <= st.Dispatch.Dynamic.updates);
  check_bool "stats read back from the run's counters" true
    (Dispatch.Dynamic.of_run r = st);
  (* Deterministic: an identical degraded dynamic run is bit-identical. *)
  let again =
    Dispatch.Dynamic.run ~faults small_sc ~updates
      ~method_id:Dispatch.Methods.C3
  in
  check_bool "degraded dynamic run reproducible" true ((r, st) = again)

(* Replay-prone fault families are rejected up front for dynamic runs:
   a dropped, duplicated or delayed update batch could apply twice (or
   out of order), which in-order exactly-once update forwarding cannot
   absorb.  Crash/degrade/failover remain legal (covered above). *)
let test_dynamic_rejects_replay_faults () =
  let updates =
    match Workload.Mutation.parse "0.1" with
    | Ok u -> u
    | Error e -> Alcotest.failf "updates: %s" e
  in
  let rejects s =
    match
      Dispatch.Dynamic.run ~faults:(parse_exn s) small_sc ~updates
        ~method_id:Dispatch.Methods.C3
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "dynamic run accepted fault spec %S" s
  in
  List.iter rejects
    [ "drop:p=0.02"; "dup:p=0.01"; "delay:p=0.01"; "slow:node=2,factor=4" ];
  (* The updates grid refuses the same runs, and a C run with two
     masters, before any cell runs. *)
  let refused sc faults =
    let spec =
      Dispatch.Experiment.Spec.default
      |> Dispatch.Experiment.Spec.with_scenario sc
      |> Dispatch.Experiment.Spec.with_methods [ Dispatch.Methods.C3 ]
      |> Dispatch.Experiment.Spec.with_updates updates
      |> Dispatch.Experiment.Spec.with_faults (parse_exn faults)
    in
    match
      Dispatch.Experiment.run_grid spec (Dispatch.Ablation.updates spec)
    with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "updates grid accepted %S" faults
  in
  refused small_sc "drop:p=0.02";
  refused small_sc "slow:node=2,factor=4";
  refused (Workload.Scenario.with_masters 2 small_sc) "none"

let test_slow_node () =
  let base = run_c3 () in
  let r = run_c3 ~faults:(parse_exn "slow:node=2,factor=4") () in
  check_int "no validation errors" 0 r.Dispatch.Run_result.validation_errors;
  check_bool "slow node lengthens the run" true
    (r.Dispatch.Run_result.raw_ns > base.Dispatch.Run_result.raw_ns);
  check_int "nothing lost" 0
    r.Dispatch.Run_result.degraded.Dispatch.Run_result.lost_queries

(* Under an arbitrary plan, Method C must never return a wrong rank:
   every answer validates, and the only unanswered queries are the ones
   reported in [degraded]. *)
let degraded_plan_gen : string QCheck.Gen.t =
  let open QCheck.Gen in
  let p = map (fun x -> Printf.sprintf "%.4f" (x /. 20.0)) (float_bound_inclusive 1.0) in
  let clause =
    oneof
      [
        map (Printf.sprintf "drop:p=%s") p;
        map (Printf.sprintf "dup:p=%s") p;
        map2 (Printf.sprintf "delay:p=%s,ns=%d") p (int_range 1 100_000);
        map2 (fun n at -> Printf.sprintf "crash:node=%d,at=%d" n at)
          (int_range 1 5) (int_bound 2_000_000);
        map2 (fun n f -> Printf.sprintf "slow:node=%d,factor=%g" n f)
          (int_range 1 5)
          (map (fun x -> 1.0 +. x) (float_bound_inclusive 3.0));
        map (Printf.sprintf "failover:fallback=%s")
          (oneofl [ "local"; "none" ]);
      ]
  in
  map (String.concat "+") (list_size (int_range 1 3) clause)

let prop_never_silently_wrong =
  QCheck.Test.make ~name:"Method C never silently wrong under faults"
    ~count:10
    (QCheck.make ~print:Fun.id degraded_plan_gen)
    (fun s ->
      match Fault.Spec.parse s with
      | Error _ -> QCheck.assume_fail ()
      | Ok spec ->
          let r = run_c3 ~faults:spec () in
          let d = r.Dispatch.Run_result.degraded in
          r.Dispatch.Run_result.validation_errors = 0
          && answered r + d.Dispatch.Run_result.lost_queries
             = small_sc.Workload.Scenario.n_queries)

(* Degraded sweeps stay byte-identical across worker counts. *)
let test_faulted_sweep_jobs_deterministic () =
  let spec =
    Dispatch.Experiment.Spec.default
    |> Dispatch.Experiment.Spec.with_scenario small_sc
    |> Dispatch.Experiment.Spec.with_batches [ 8 * 1024; 32 * 1024 ]
    |> Dispatch.Experiment.Spec.with_methods
         [ Dispatch.Methods.C2; Dispatch.Methods.C3 ]
    |> Dispatch.Experiment.Spec.with_faults
         (parse_exn "drop:p=0.02+crash:node=3,at=5e4")
  in
  let runs_at jobs =
    grid Dispatch.Experiment.fig3
      (Dispatch.Experiment.Spec.with_jobs jobs spec)
    |> List.concat_map (fun row -> row.Dispatch.Experiment.results)
  in
  let r1 = runs_at 1 and r2 = runs_at 2 in
  check_bool "faulted sweep identical at --jobs 1 vs 2" true (r1 = r2);
  check_bool "sweep actually degraded" true
    (List.exists
       (fun (r : Dispatch.Run_result.t) ->
         Dispatch.Run_result.is_degraded r.Dispatch.Run_result.degraded)
       r1)

(* An ablation's grid hands the spec's faults to every cell: each
   batch size's C-3 run loses slave 3 mid-run and says so. *)
let test_ablation_cells_get_faults () =
  let runs faults =
    let spec =
      Dispatch.Experiment.Spec.default
      |> Dispatch.Experiment.Spec.with_scenario small_sc
      |> Dispatch.Experiment.Spec.with_faults faults
    in
    match
      Dispatch.Experiment.run_grid spec
        (Dispatch.Ablation.batch_overhead ~batches:[ 8 * 1024; 32 * 1024 ]
           spec)
    with
    | Ok (_, runs) -> List.map snd runs
    | Error msg -> Alcotest.fail msg
  in
  let faulted = runs (parse_exn "crash:node=3,at=5e4") in
  check_int "one run per cell" 2 (List.length faulted);
  check_bool "every cell degraded" true
    (List.for_all
       (fun (r : Dispatch.Run_result.t) ->
         Dispatch.Run_result.is_degraded r.Dispatch.Run_result.degraded)
       faulted);
  check_bool "faulted results differ from fault-free" true
    (faulted <> runs Fault.Spec.none)

(* The hierarchical extension survives a crash too. *)
let test_hier_crash_failover () =
  let sc =
    Workload.Scenario.ci
    |> Workload.Scenario.with_queries 4096
    |> Workload.Scenario.with_nodes 9
  in
  let keys, queries = Dispatch.Runner.workload sc in
  let r =
    Dispatch.Runner.run ~routers:2
      ~faults:(parse_exn "crash:node=5,at=5e4")
      sc ~method_id:Dispatch.Methods.C3 ~keys ~queries
  in
  check_int "no validation errors" 0 r.Dispatch.Run_result.validation_errors;
  check_bool "run degraded" true
    (Dispatch.Run_result.is_degraded r.Dispatch.Run_result.degraded)

(* Tail entries for redispatched queries carry the total response time
   (dispatch to resolution, through every timeout and retry), not the
   last attempt's latency. *)
let test_tail_counts_total_latency_for_retried () =
  let keys, queries = Lazy.force workload in
  let prof = Obs.Profile.create ~tail_k:16 () in
  let r =
    Obs.Profile.with_recording prof (fun () ->
        Dispatch.Runner.run
          ~faults:(parse_exn "crash:node=3,at=5e4")
          small_sc ~method_id:Dispatch.Methods.C3 ~keys ~queries)
  in
  check_bool "run degraded" true
    (r.Dispatch.Run_result.degraded.Dispatch.Run_result.redispatches > 0);
  let entries = Obs.Tail.worst (Obs.Profile.tail prof) in
  let redispatched =
    List.filter
      (fun e -> List.mem_assoc "redispatch" e.Obs.Tail.breakdown)
      entries
  in
  check_bool "redispatched queries dominate the tail" true
    (redispatched <> []);
  (* One full failover timeout is the floor of any redispatched query's
     response time; matching the noted breakdown to [ns] proves the
     total was charged, not the final attempt. *)
  let net = small_sc.Workload.Scenario.net in
  let timeout =
    8.0
    *. (net.Netsim.Profile.latency_ns
       +. Netsim.Profile.transfer_ns net small_sc.Workload.Scenario.batch_bytes
       +. net.Netsim.Profile.host_overhead_ns)
  in
  List.iter
    (fun e ->
      check_bool "total latency spans at least one timeout" true
        (e.Obs.Tail.ns >= timeout);
      check_bool "breakdown equals the total" true
        (List.assoc "redispatch" e.Obs.Tail.breakdown = e.Obs.Tail.ns))
    redispatched

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parse clauses" `Quick test_spec_parse;
          Alcotest.test_case "reject malformed" `Quick test_spec_errors;
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
        ] );
      ( "plan",
        [ Alcotest.test_case "deterministic" `Quick test_plan_deterministic ] );
      ( "network",
        [
          QCheck_alcotest.to_alcotest prop_non_overtaking;
          Alcotest.test_case "lossless plan delivers all" `Quick
            test_lossless_plan_delivers_all;
        ] );
      ( "method-c",
        [
          Alcotest.test_case "zero-fault bit-identical" `Quick
            test_zero_fault_bit_identical;
          Alcotest.test_case "crash failover" `Quick test_crash_failover;
          Alcotest.test_case "lost without fallback" `Quick
            test_crash_without_fallback_reports_lost;
          Alcotest.test_case "dynamic crash accounting" `Quick
            test_dynamic_crash_accounting;
          Alcotest.test_case "dynamic rejects replay faults" `Quick
            test_dynamic_rejects_replay_faults;
          Alcotest.test_case "slow node" `Quick test_slow_node;
          QCheck_alcotest.to_alcotest prop_never_silently_wrong;
          Alcotest.test_case "faulted sweep jobs-deterministic" `Slow
            test_faulted_sweep_jobs_deterministic;
          Alcotest.test_case "ablation cells get faults" `Quick
            test_ablation_cells_get_faults;
          Alcotest.test_case "hierarchical crash failover" `Quick
            test_hier_crash_failover;
          Alcotest.test_case "tail counts total retried latency" `Quick
            test_tail_counts_total_latency_for_retried;
        ] );
    ]
