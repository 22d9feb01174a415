(* Tests for the beyond-paper extensions: the Eytzinger layout, the
   latency accumulator, response-time measurement and multi-master
   Method C. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let p3 = Cachesim.Mem_params.pentium3
let fresh_machine () = Machine.create (Simcore.Engine.create ()) ~name:"x" p3

(* ------------------------------------------------------------------ *)
(* Eytzinger *)

let eyt_search keys =
  let m = fresh_machine () in
  let e = Index.Eytzinger.build m keys in
  Index.Eytzinger.search e

let test_eytzinger_agreement_sizes () =
  List.iter
    (fun n ->
      let keys = Array.init n (fun i -> (i * 7) + 3) in
      let search = eyt_search keys in
      List.iter
        (fun q ->
          check_int
            (Printf.sprintf "n=%d q=%d" n q)
            (Index.Ref_impl.rank keys q) (search q))
        [ 0; 2; 3; 4; 9; 10; 11; (n * 7) + 2; (n * 7) + 3; (n * 7) + 4; 99999 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8; 15; 16; 17; 100; 1000; 4095; 4096; 4097 ]

let test_eytzinger_random_agreement () =
  let g = Prng.Splitmix.create 3 in
  let keys = Workload.Keygen.index_keys g ~n:20_000 in
  let search = eyt_search keys in
  for _ = 1 to 3000 do
    let q = Prng.Splitmix.int g Index.Key.sentinel in
    check_int "random" (Index.Ref_impl.rank keys q) (search q)
  done

let test_eytzinger_untimed_and_size () =
  let keys = Array.init 1000 (fun i -> i * 2) in
  let m = fresh_machine () in
  let e = Index.Eytzinger.build m keys in
  for q = 0 to 100 do
    check_int "timed = untimed" (Index.Eytzinger.search e q)
      (Index.Eytzinger.search_untimed e q)
  done;
  check_int "pairs take 2x" (2 * 1000 * 4) (Index.Eytzinger.size_bytes e);
  check_int "height of 1000" 10 (Index.Eytzinger.levels e)

let test_eytzinger_beats_sorted_when_resident () =
  (* The point of the layout: fewer distinct lines touched per lookup on
     a cache-resident partition. *)
  let g = Prng.Splitmix.create 5 in
  let keys = Workload.Keygen.index_keys g ~n:32768 in
  let queries = Array.init 20_000 (fun _ -> Prng.Splitmix.int g Index.Key.sentinel) in
  let cost build search =
    let m = fresh_machine () in
    let idx = build m keys in
    Array.iter (fun q -> ignore (search idx q)) queries;
    let before = Machine.busy_ns m in
    Array.iter (fun q -> ignore (search idx q)) queries;
    (Machine.busy_ns m -. before) /. float_of_int (Array.length queries)
  in
  let sorted = cost Index.Sorted_array.build Index.Sorted_array.search in
  let eyt = cost Index.Eytzinger.build Index.Eytzinger.search in
  check_bool
    (Printf.sprintf "eytzinger %.0f < sorted %.0f" eyt sorted)
    true (eyt < sorted)

let prop_eytzinger_matches_ref =
  QCheck.Test.make ~name:"eytzinger = Ref_impl.rank" ~count:80
    QCheck.(pair small_int (int_range 1 500))
    (fun (seed, n) ->
      let g = Prng.Splitmix.create seed in
      let module IS = Set.Make (Int) in
      let rec draw s =
        if IS.cardinal s = n then s
        else draw (IS.add (Prng.Splitmix.int g 50_000) s)
      in
      let keys = Array.of_list (IS.elements (draw IS.empty)) in
      let search = eyt_search keys in
      let ok = ref true in
      for _ = 1 to 50 do
        let q = Prng.Splitmix.int g 60_000 in
        if search q <> Index.Ref_impl.rank keys q then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Latency accumulator *)

let test_latency_mean_and_count () =
  let l = Dispatch.Latency.create () in
  List.iter (Dispatch.Latency.add l) [ 1.0; 2.0; 3.0; 4.0 ];
  check_int "count" 4 (Dispatch.Latency.count l);
  check_float "mean" 2.5 (Dispatch.Latency.mean l);
  check_float "max" 4.0 (Dispatch.Latency.max_seen l)

let test_latency_empty () =
  let l = Dispatch.Latency.create () in
  check_float "mean empty" 0.0 (Dispatch.Latency.mean l);
  check_float "p95 empty" 0.0 (Dispatch.Latency.percentile l 0.95)

let test_latency_add_many () =
  let l = Dispatch.Latency.create () in
  Dispatch.Latency.add_many l 10.0 1000;
  Dispatch.Latency.add_many l 20.0 1000;
  check_int "count" 2000 (Dispatch.Latency.count l);
  check_float "mean" 15.0 (Dispatch.Latency.mean l);
  let p95 = Dispatch.Latency.percentile l 0.95 in
  check_float "p95 from the heavy tail" 20.0 p95

let test_latency_percentile_sampled () =
  let l = Dispatch.Latency.create ~sample_stride:1 () in
  for i = 1 to 100 do
    Dispatch.Latency.add l (float_of_int i)
  done;
  let p95 = Dispatch.Latency.percentile l 0.95 in
  check_bool (Printf.sprintf "p95 = %.0f in [93,97]" p95) true
    (p95 >= 93.0 && p95 <= 97.0);
  check_float "p0 = min" 1.0 (Dispatch.Latency.percentile l 0.0);
  check_float "p100 = max" 100.0 (Dispatch.Latency.percentile l 1.0)

(* ------------------------------------------------------------------ *)
(* Response-time measurement in the methods *)

let sc =
  Workload.Scenario.with_batch
    (Workload.Scenario.ci
    |> Workload.Scenario.with_name "ext"
    |> Workload.Scenario.with_keys (1 lsl 15)
    |> Workload.Scenario.with_queries (1 lsl 14)
    |> Workload.Scenario.with_nodes 6)
    (16 * 1024)

let workload = lazy (Dispatch.Runner.workload sc)

let run ?(sc = sc) method_id =
  let keys, queries = Lazy.force workload in
  Dispatch.Runner.run sc ~method_id ~keys ~queries

let test_response_time_populated () =
  List.iter
    (fun m ->
      let r = run m in
      check_bool
        (Printf.sprintf "%s mean resp > 0" (Dispatch.Methods.to_string m))
        true
        (r.Dispatch.Run_result.mean_response_ns > 0.0);
      check_bool "p95 >= mean/2" true
        (r.Dispatch.Run_result.p95_response_ns
        >= 0.5 *. r.Dispatch.Run_result.mean_response_ns))
    Dispatch.Methods.all

let test_response_time_grows_with_batch () =
  let resp batch m =
    (run ~sc:(Workload.Scenario.with_batch sc (batch * 1024)) m)
      .Dispatch.Run_result.mean_response_ns
  in
  check_bool "B response grows" true
    (resp 64 Dispatch.Methods.B > resp 8 Dispatch.Methods.B);
  check_bool "C-3 response grows" true
    (resp 64 Dispatch.Methods.C3 > resp 8 Dispatch.Methods.C3)

let test_c3_response_below_b_at_equal_batch () =
  (* The paper's §4.1 point: C reaches its throughput at far smaller
     batches; at an equal batch C's queries also wait less because each
     message holds batch/slaves keys. *)
  let b = run Dispatch.Methods.B in
  let c = run Dispatch.Methods.C3 in
  check_bool
    (Printf.sprintf "C-3 %.0f < B %.0f"
       c.Dispatch.Run_result.mean_response_ns
       b.Dispatch.Run_result.mean_response_ns)
    true
    (c.Dispatch.Run_result.mean_response_ns
    < b.Dispatch.Run_result.mean_response_ns);
  check_bool "method A response is a single lookup" true
    ((run Dispatch.Methods.A).Dispatch.Run_result.mean_response_ns < 10_000.0)

(* ------------------------------------------------------------------ *)
(* Multi-master Method C *)

let test_multi_master_correct () =
  let keys, queries = Lazy.force workload in
  List.iter
    (fun n_masters ->
      let sc =
        sc
        |> Workload.Scenario.with_masters n_masters
        |> Workload.Scenario.with_nodes (5 + n_masters)
      in
      let r = Dispatch.Runner.run sc ~method_id:Dispatch.Methods.C3 ~keys ~queries in
      check_int
        (Printf.sprintf "%d masters: no errors" n_masters)
        0 r.Dispatch.Run_result.validation_errors;
      check_int "byte accounting still exact"
        (2 * sc.Workload.Scenario.n_queries * 4)
        r.Dispatch.Run_result.bytes_sent)
    [ 1; 2; 3 ]

let test_multi_master_relieves_master_bottleneck () =
  let keys, queries = Lazy.force workload in
  let with_masters m =
    Dispatch.Runner.run
      (sc
      |> Workload.Scenario.with_masters m
      |> Workload.Scenario.with_nodes (5 + m))
      ~method_id:Dispatch.Methods.C3 ~keys ~queries
  in
  let r1 = with_masters 1 and r2 = with_masters 2 in
  check_bool "per-master load drops" true
    (r2.Dispatch.Run_result.master_busy < r1.Dispatch.Run_result.master_busy);
  check_bool "throughput does not regress" true
    (Dispatch.Run_result.per_key_ns r2
    <= 1.05 *. Dispatch.Run_result.per_key_ns r1)

let test_multi_master_all_variants () =
  let keys, queries = Lazy.force workload in
  let sc =
    sc |> Workload.Scenario.with_masters 2 |> Workload.Scenario.with_nodes 7
  in
  List.iter
    (fun v ->
      let r = Dispatch.Runner.run sc ~method_id:v ~keys ~queries in
      check_int
        (Printf.sprintf "%s with 2 masters" (Dispatch.Methods.to_string v))
        0 r.Dispatch.Run_result.validation_errors)
    [ Dispatch.Methods.C1; Dispatch.Methods.C2; Dispatch.Methods.C3 ]

let test_masters_bad_configs () =
  let keys, queries = Lazy.force workload in
  let bad n_masters n_nodes =
    match
      Dispatch.Runner.run
        (sc
        |> Workload.Scenario.with_masters n_masters
        |> Workload.Scenario.with_nodes n_nodes)
        ~method_id:Dispatch.Methods.C3 ~keys ~queries
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "zero masters" true (bad 0 6);
  check_bool "no room for slaves" true (bad 6 6)

(* ------------------------------------------------------------------ *)
(* Hierarchical Method C *)

let test_hier_correct_all_variants () =
  let keys, queries = Lazy.force workload in
  let sc = Workload.Scenario.with_nodes 8 sc in
  List.iter
    (fun v ->
      let r = Dispatch.Runner.run ~routers:2 sc ~method_id:v ~keys ~queries in
      check_int
        (Printf.sprintf "hier %s correct" (Dispatch.Methods.to_string v))
        0 r.Dispatch.Run_result.validation_errors)
    [ Dispatch.Methods.C1; Dispatch.Methods.C2; Dispatch.Methods.C3 ]

let test_hier_byte_accounting () =
  (* Every key crosses the wire three times: master->router,
     router->slave, slave->target. *)
  let keys, queries = Lazy.force workload in
  let sc = Workload.Scenario.with_nodes 8 sc in
  let r =
    Dispatch.Runner.run ~routers:2 sc ~method_id:Dispatch.Methods.C3 ~keys
      ~queries
  in
  check_int "3 hops x 4 bytes" (3 * sc.Workload.Scenario.n_queries * 4)
    r.Dispatch.Run_result.bytes_sent

let test_hier_response_above_flat () =
  (* The extra hop costs latency at small scale — the honest trade-off. *)
  let keys, queries = Lazy.force workload in
  let flat = run Dispatch.Methods.C3 in
  let hier =
    Dispatch.Runner.run ~routers:2
      (Workload.Scenario.with_nodes 8 sc)
      ~method_id:Dispatch.Methods.C3 ~keys ~queries
  in
  check_bool "tree adds response time" true
    (hier.Dispatch.Run_result.mean_response_ns
    > flat.Dispatch.Run_result.mean_response_ns)

let test_hier_bad_configs () =
  let keys, queries = Lazy.force workload in
  let bad f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check_bool "zero routers" true
    (bad (fun () ->
         Dispatch.Runner.run ~routers:0 sc ~method_id:Dispatch.Methods.C3 ~keys
           ~queries));
  check_bool "more routers than slaves" true
    (bad (fun () ->
         Dispatch.Runner.run ~routers:4
           (Workload.Scenario.with_nodes 6 sc)
           ~method_id:Dispatch.Methods.C3 ~keys ~queries));
  check_bool "method A has no router tier" true
    (bad (fun () ->
         Dispatch.Runner.run ~routers:2
           (Workload.Scenario.with_nodes 8 sc)
           ~method_id:Dispatch.Methods.A ~keys ~queries))

let test_hier_determinism () =
  let keys, queries = Lazy.force workload in
  let sc = Workload.Scenario.with_nodes 8 sc in
  let go () =
    (Dispatch.Runner.run ~routers:2 sc ~method_id:Dispatch.Methods.C3 ~keys
       ~queries)
      .Dispatch.Run_result.total_ns
  in
  check_bool "bit-identical" true (go () = go ())

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "extensions"
    [
      ( "eytzinger",
        [
          tc "agreement across sizes" `Quick test_eytzinger_agreement_sizes;
          tc "random agreement" `Quick test_eytzinger_random_agreement;
          tc "untimed + size" `Quick test_eytzinger_untimed_and_size;
          tc "beats sorted when resident" `Slow
            test_eytzinger_beats_sorted_when_resident;
        ] );
      ( "latency",
        [
          tc "mean and count" `Quick test_latency_mean_and_count;
          tc "empty" `Quick test_latency_empty;
          tc "add_many" `Quick test_latency_add_many;
          tc "percentiles" `Quick test_latency_percentile_sampled;
        ] );
      ( "response-time",
        [
          tc "populated for all methods" `Slow test_response_time_populated;
          tc "grows with batch" `Slow test_response_time_grows_with_batch;
          tc "C-3 below B" `Slow test_c3_response_below_b_at_equal_batch;
        ] );
      ( "hierarchy",
        [
          tc "correct all variants" `Slow test_hier_correct_all_variants;
          tc "byte accounting" `Slow test_hier_byte_accounting;
          tc "response above flat" `Slow test_hier_response_above_flat;
          tc "bad configs" `Quick test_hier_bad_configs;
          tc "determinism" `Slow test_hier_determinism;
        ] );
      ( "multi-master",
        [
          tc "correct" `Slow test_multi_master_correct;
          tc "relieves bottleneck" `Slow test_multi_master_relieves_master_bottleneck;
          tc "all variants" `Slow test_multi_master_all_variants;
          tc "bad configs" `Quick test_masters_bad_configs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_eytzinger_matches_ref ] );
    ]
