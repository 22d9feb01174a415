(* Integration tests for the dispatch layer: partitioning, the five
   method simulations, experiment drivers and ablations.  Scenarios are
   kept small so the whole suite runs in seconds; correctness (validation
   against the reference oracle) is checked on every run. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Astring_contains = struct
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then false
      else if String.sub s i m = sub then true
      else go (i + 1)
    in
    go 0
end

(* A scenario big enough that the A/B tree overflows the L2 (the paper's
   premise) but small enough for fast tests. *)
let small_sc =
  Workload.Scenario.with_batch
    (Workload.Scenario.ci
    |> Workload.Scenario.with_name "test"
    |> Workload.Scenario.with_keys (1 lsl 16)
    |> Workload.Scenario.with_queries (1 lsl 15)
    |> Workload.Scenario.with_nodes 6)
    (16 * 1024)

let workload = lazy (Dispatch.Runner.workload small_sc)

let run method_id =
  let keys, queries = Lazy.force workload in
  Dispatch.Runner.run small_sc ~method_id ~keys ~queries

(* ------------------------------------------------------------------ *)
(* Methods *)

let test_methods_string_roundtrip () =
  List.iter
    (fun m ->
      match Dispatch.Methods.of_string (Dispatch.Methods.to_string m) with
      | Some m' -> check_bool "roundtrip" true (m = m')
      | None -> Alcotest.fail "roundtrip failed")
    Dispatch.Methods.all;
  check_bool "c3 lowercase" true
    (Dispatch.Methods.of_string "c3" = Some Dispatch.Methods.C3);
  check_bool "unknown" true (Dispatch.Methods.of_string "z" = None)

let test_methods_distributed () =
  check_bool "A local" false (Dispatch.Methods.is_distributed Dispatch.Methods.A);
  check_bool "C2 distributed" true
    (Dispatch.Methods.is_distributed Dispatch.Methods.C2)

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_bounds_and_slices () =
  let keys = Array.init 103 (fun i -> (i * 5) + 2) in
  let p = Dispatch.Partition.make ~keys ~parts:4 in
  check_int "parts" 4 (Dispatch.Partition.parts p);
  (* Sizes near-equal and ordered: 26,26,26,25. *)
  let total = ref 0 in
  for s = 0 to 3 do
    let len = Dispatch.Partition.slice_len p s in
    check_bool "near equal" true (len = 25 || len = 26);
    total := !total + len
  done;
  check_int "cover all keys" 103 !total;
  (* Slices concatenate back to the original array. *)
  let concat =
    Array.concat (List.init 4 (fun s -> Dispatch.Partition.slice p s))
  in
  Alcotest.(check (array int)) "reassembles" keys concat

let test_partition_delimiters_and_owner () =
  let keys = Array.init 100 (fun i -> i * 10) in
  let p = Dispatch.Partition.make ~keys ~parts:5 in
  let d = Dispatch.Partition.delimiters p in
  check_int "4 delimiters" 4 (Array.length d);
  (* Every key is owned by the slice that contains it. *)
  Array.iteri
    (fun rank key ->
      let owner = Dispatch.Partition.owner p key in
      let base = Dispatch.Partition.base p owner in
      let len = Dispatch.Partition.slice_len p owner in
      check_bool "rank within owner slice" true (rank >= base && rank < base + len))
    keys;
  (* Queries outside the key range. *)
  check_int "below all -> first" 0 (Dispatch.Partition.owner p (-5));
  check_int "above all -> last" 4 (Dispatch.Partition.owner p 99999)

let test_partition_base_monotone () =
  let keys = Array.init 64 (fun i -> i) in
  let p = Dispatch.Partition.make ~keys ~parts:8 in
  for s = 0 to 7 do
    check_int "base = s*8" (s * 8) (Dispatch.Partition.base p s)
  done;
  check_int "max slice bytes" (8 * 4)
    (Dispatch.Partition.max_slice_bytes p ~word_bytes:4)

let test_partition_bad_args () =
  check_bool "more parts than keys" true
    (match Dispatch.Partition.make ~keys:[| 1; 2 |] ~parts:3 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Method runs: correctness and sanity for each of the five methods *)

let method_sanity method_id () =
  let r = run method_id in
  check_int
    (Printf.sprintf "%s: zero validation errors" (Dispatch.Methods.to_string method_id))
    0 r.Dispatch.Run_result.validation_errors;
  check_bool "time positive" true (r.Dispatch.Run_result.total_ns > 0.0);
  check_bool "per-key consistent" true
    (Float.abs
       (r.Dispatch.Run_result.per_key_ns
       -. (r.Dispatch.Run_result.total_ns /. float_of_int r.Dispatch.Run_result.n_queries))
    < 1e-6);
  check_bool "idle in [0,1]" true
    (r.Dispatch.Run_result.slave_idle >= 0.0 && r.Dispatch.Run_result.slave_idle <= 1.0);
  if Dispatch.Methods.is_distributed method_id then begin
    check_bool "messages flowed" true (r.Dispatch.Run_result.messages > 0);
    check_bool "master was busy" true (r.Dispatch.Run_result.master_busy > 0.0)
  end
  else begin
    check_int "no messages" 0 r.Dispatch.Run_result.messages;
    check_bool "normalized by nodes" true
      (Float.abs
         ((r.Dispatch.Run_result.raw_ns /. float_of_int small_sc.Workload.Scenario.n_nodes)
         -. r.Dispatch.Run_result.total_ns)
      < 1.0)
  end

let test_method_c_byte_accounting () =
  let r = run Dispatch.Methods.C3 in
  (* Each query key crosses the network exactly twice: once to the slave,
     once back as a rank. *)
  let w = 4 in
  check_int "bytes = 2 * queries * word"
    (2 * small_sc.Workload.Scenario.n_queries * w)
    r.Dispatch.Run_result.bytes_sent

let test_determinism () =
  let a = run Dispatch.Methods.C3 in
  let b = run Dispatch.Methods.C3 in
  check_bool "bit-identical simulated time" true
    (a.Dispatch.Run_result.total_ns = b.Dispatch.Run_result.total_ns);
  check_int "same messages" a.Dispatch.Run_result.messages b.Dispatch.Run_result.messages

let test_c_variants_all_correct_and_close () =
  let c1 = run Dispatch.Methods.C1 in
  let c2 = run Dispatch.Methods.C2 in
  let c3 = run Dispatch.Methods.C3 in
  check_int "C1 correct" 0 c1.Dispatch.Run_result.validation_errors;
  check_int "C2 correct" 0 c2.Dispatch.Run_result.validation_errors;
  check_int "C3 correct" 0 c3.Dispatch.Run_result.validation_errors;
  (* Paper: the three variants follow the same trend, within ~2x. *)
  let ts = [ c1; c2; c3 ] |> List.map Dispatch.Run_result.per_key_ns in
  let mn = List.fold_left Float.min infinity ts in
  let mx = List.fold_left Float.max 0.0 ts in
  check_bool (Printf.sprintf "variants within 2.5x (%.0f..%.0f)" mn mx) true
    (mx < 2.5 *. mn)

let test_paper_headline_ordering () =
  (* The reproduction target: at a good batch size, C-3 beats A and B. *)
  let sc = Workload.Scenario.with_batch small_sc (32 * 1024) in
  let keys, queries = Lazy.force workload in
  let a = Dispatch.Runner.run sc ~method_id:Dispatch.Methods.A ~keys ~queries in
  let b = Dispatch.Runner.run sc ~method_id:Dispatch.Methods.B ~keys ~queries in
  let c = Dispatch.Runner.run sc ~method_id:Dispatch.Methods.C3 ~keys ~queries in
  let pa = Dispatch.Run_result.per_key_ns a in
  let pb = Dispatch.Run_result.per_key_ns b in
  let pc = Dispatch.Run_result.per_key_ns c in
  check_bool (Printf.sprintf "C-3 (%.1f) < A (%.1f)" pc pa) true (pc < pa);
  check_bool (Printf.sprintf "C-3 (%.1f) < B (%.1f)" pc pb) true (pc < pb)

let test_scale_invariance_of_per_key_cost () =
  let keys, queries = Lazy.force workload in
  let half = Array.sub queries 0 (Array.length queries / 2) in
  let r_full = Dispatch.Runner.run small_sc ~method_id:Dispatch.Methods.A ~keys ~queries in
  let r_half = Dispatch.Runner.run small_sc ~method_id:Dispatch.Methods.A ~keys ~queries:half in
  let f = Dispatch.Run_result.per_key_ns r_full in
  let h = Dispatch.Run_result.per_key_ns r_half in
  check_bool
    (Printf.sprintf "per-key stable under volume (%.1f vs %.1f)" f h)
    true
    (Float.abs (f -. h) /. f < 0.15)

(* A slave's receive and reply buffers are [batch_keys] words each, but
   a batch carries at most the flush threshold [cap]: the slave owns host
   pages only for the words batches and replies write, and none of its
   loaded index.  C-3 at the paper's 1024 KB batch over ten slaves. *)
let test_slave_owns_written_pages () =
  let keys = Array.init 32768 (fun i -> (3 * i) + 1) in
  let batch_keys = 1024 * 1024 / 4 in
  let cap = batch_keys / 10 in
  let eng = Simcore.Engine.create () in
  let net = Netsim.Network.create eng Netsim.Profile.myrinet ~nodes:2 in
  let m = Machine.create eng ~name:"slave" Cachesim.Mem_params.pentium3 in
  let slave =
    Dispatch.Slave_node.build Dispatch.Methods.C3 m keys ~batch_keys
  in
  check_int "index pages shared with the image" 0 (Machine.owned_pages m);
  Dispatch.Slave_node.spawn eng net slave ~node:1 ~terms_expected:1
    ~reply_dst:(fun ~src -> src)
    ~overhead_ns:0.0 ();
  let rng = Random.State.make [| 7 |] in
  Simcore.Engine.spawn eng (fun () ->
      for id = 0 to 3 do
        Netsim.Network.isend net ~src:0 ~dst:1 ~size:(4 * cap)
          (Dispatch.Proto.Data
             (id, Array.init cap (fun _ -> Random.State.int rng (1 lsl 20))))
      done;
      Netsim.Network.isend net ~src:0 ~dst:1 ~size:0 Dispatch.Proto.Term);
  Simcore.Engine.run eng;
  (* Each buffer's first [cap] words touch at least [cap / 1024] and at
     most [cap / 1024 + 2] pages of 1,024 words. *)
  let owned = Machine.owned_pages m in
  check_bool
    (Printf.sprintf "owns %d pages: 3 buffers of %d words" owned cap)
    true
    (owned >= 3 * (cap / 1024) && owned <= 3 * ((cap / 1024) + 2));
  check_bool "not the buffers' full size" true (owned < batch_keys / 1024)

let test_method_c_rejects_bad_config () =
  let keys, queries = Lazy.force workload in
  check_bool "one node rejected" true
    (match
       Dispatch.Runner.run
         (Workload.Scenario.with_nodes 1 small_sc)
         ~method_id:Dispatch.Methods.C3 ~keys ~queries
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "variant A rejected by the C core" true
    (match
       Dispatch.Method_c.drive ~faults:None small_sc
         ~source:Dispatch.Method_c.Batch ~ops:Dispatch.Method_c.Queries
         ~topology:Dispatch.Method_c.Flat ~variant:Dispatch.Methods.A ~keys
         ~queries
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* [Method_c.layout] is the check [drive] makes, so a driver can refuse
   an infeasible grid before anything runs: the hierarchy ablation's
   3-router tree needs 3 slaves over its [n_nodes - 1]. *)
let test_layout_refuses_before_running () =
  let layout n topology =
    Dispatch.Method_c.layout
      (Workload.Scenario.with_nodes n small_sc)
      ~ops:Dispatch.Method_c.Queries ~topology
  in
  check_bool "flat: one master, five slaves" true
    (layout 6 Dispatch.Method_c.Flat = Ok (1, 0, 5));
  check_bool "3 routers over 2 slaves refused" true
    (Result.is_error (layout 6 (Dispatch.Method_c.Routers 3)));
  check_bool "3 routers over 3 slaves" true
    (layout 7 (Dispatch.Method_c.Routers 3) = Ok (1, 3, 3));
  let hierarchy n =
    Dispatch.Ablation.hierarchy_check
      (Dispatch.Experiment.Spec.default
      |> Dispatch.Experiment.Spec.with_scenario
           (Workload.Scenario.with_nodes n small_sc))
  in
  check_bool "hierarchy on 3 nodes refused" true
    (Result.is_error (hierarchy 3));
  check_bool "hierarchy on 4 nodes" true (hierarchy 4 = Ok ())

let test_more_slaves_help_method_c () =
  let keys, queries = Lazy.force workload in
  let with_nodes n = Workload.Scenario.with_nodes n small_sc in
  let r3 = Dispatch.Runner.run (with_nodes 3) ~method_id:Dispatch.Methods.C3 ~keys ~queries in
  let r11 = Dispatch.Runner.run (with_nodes 11) ~method_id:Dispatch.Methods.C3 ~keys ~queries in
  check_int "r3 correct" 0 r3.Dispatch.Run_result.validation_errors;
  check_int "r11 correct" 0 r11.Dispatch.Run_result.validation_errors;
  check_bool "10 slaves faster than 2" true
    (Dispatch.Run_result.per_key_ns r11 < Dispatch.Run_result.per_key_ns r3)

(* ------------------------------------------------------------------ *)
(* Run_result helpers *)

let test_run_result_helpers () =
  let r = run Dispatch.Methods.A in
  let thr = Dispatch.Run_result.throughput_mqs r in
  check_bool "throughput positive" true (thr > 0.0);
  let s = Dispatch.Run_result.scaled_total_s r ~queries:1_000_000_000 in
  check_bool "scaling linear" true
    (Float.abs (s -. (Dispatch.Run_result.per_key_ns r)) < 1e-6);
  check_int "cells match header"
    (List.length Dispatch.Run_result.header)
    (List.length (Dispatch.Run_result.to_cells r))

(* ------------------------------------------------------------------ *)
(* Calibration *)

let test_calibration_recovers_parameters () =
  let p = Cachesim.Mem_params.pentium3 in
  let c = Dispatch.Calibrate.measure p Netsim.Profile.myrinet in
  let close ?(tol = 0.10) name expected actual =
    check_bool
      (Printf.sprintf "%s: %.2f ~ %.2f" name expected actual)
      true
      (Float.abs (actual -. expected) /. expected < tol)
  in
  close "B2" p.Cachesim.Mem_params.b2_penalty_ns c.Dispatch.Calibrate.b2_penalty_ns;
  close "B1" p.Cachesim.Mem_params.b1_penalty_ns c.Dispatch.Calibrate.b1_penalty_ns;
  close "W1 seq" 647.0 c.Dispatch.Calibrate.seq_bw_mb_s;
  close "W2" 138.0 c.Dispatch.Calibrate.net_bw_mb_s;
  close "comp node" 30.0 c.Dispatch.Calibrate.comp_cost_node_ns;
  close "latency" 7.0 c.Dispatch.Calibrate.net_latency_us;
  (* Random bandwidth is latency-bound: tens of MB/s, far below W1. *)
  check_bool "rand bw << seq bw" true
    (c.Dispatch.Calibrate.rand_bw_mb_s *. 5.0 < c.Dispatch.Calibrate.seq_bw_mb_s)

(* ------------------------------------------------------------------ *)
(* Experiment drivers (structure-level checks at tiny scale) *)

let tiny_sc = Workload.Scenario.ci |> Workload.Scenario.with_queries (1 lsl 13)

let tiny_spec =
  Dispatch.Experiment.Spec.default
  |> Dispatch.Experiment.Spec.with_scenario tiny_sc

let test_experiment_table1 () =
  let t = Dispatch.Experiment.table1 tiny_spec in
  check_bool "has rows" true (Report.Table.rows t >= 8);
  let s = Report.Table.render t in
  check_bool "mentions keys" true
    (Astring_contains.contains s (string_of_int tiny_sc.Workload.Scenario.n_keys))

and test_experiment_fig3_structure () =
  let rows =
    Dispatch.Experiment.fig3
      (tiny_spec
      |> Dispatch.Experiment.Spec.with_methods
           [ Dispatch.Methods.A; Dispatch.Methods.C3 ]
      |> Dispatch.Experiment.Spec.with_batches [ 8 * 1024; 32 * 1024 ])
  in
  check_int "two batch rows" 2 (List.length rows);
  List.iter
    (fun { Dispatch.Experiment.batch_bytes; results } ->
      check_bool "batch in set" true (batch_bytes = 8192 || batch_bytes = 32768);
      check_int "two methods" 2 (List.length results);
      List.iter
        (fun (r : Dispatch.Run_result.t) ->
          check_int "no errors" 0 r.Dispatch.Run_result.validation_errors)
        results)
    rows;
  let rendered = Dispatch.Experiment.render_fig3 ~scenario:tiny_sc rows in
  check_bool "plot legend present" true (Astring_contains.contains rendered "legend:")

and test_experiment_table3_structure () =
  let rows = Dispatch.Experiment.table3 tiny_spec in
  check_int "three strategies" 3 (List.length rows);
  List.iter
    (fun { Dispatch.Experiment.method_id = _; predicted_ns; simulated_ns; _ } ->
      check_bool "positive prediction" true (predicted_ns > 0.0);
      check_bool "positive simulation" true (simulated_ns > 0.0))
    rows;
  let rendered = Dispatch.Experiment.render_table3 ~scenario:tiny_sc rows in
  check_bool "header" true (Astring_contains.contains rendered "predicted time")

and test_experiment_fig4_structure () =
  let rows = Dispatch.Experiment.fig4 ~years:5 tiny_spec in
  check_int "six years" 6 (List.length rows);
  let first = List.hd rows and last = List.nth rows 5 in
  check_bool "multi-master advantage grows" true
    (last.Dispatch.Experiment.b_ns /. last.Dispatch.Experiment.c3_mm_ns
    > first.Dispatch.Experiment.b_ns /. first.Dispatch.Experiment.c3_mm_ns);
  check_bool "every cost positive" true
    (List.for_all
       (fun r ->
         r.Dispatch.Experiment.a_ns > 0.0
         && r.Dispatch.Experiment.b_ns > 0.0
         && r.Dispatch.Experiment.c3_ns > 0.0
         && r.Dispatch.Experiment.c3_mm_ns > 0.0)
       rows);
  check_bool "render" true
    (Astring_contains.contains (Dispatch.Experiment.render_fig4 rows) "Year")

let test_experiment_timeline () =
  let out =
    Dispatch.Experiment.timeline ~method_id:Dispatch.Methods.C3 tiny_spec
  in
  check_bool "has master lane" true (Astring_contains.contains out "master");
  check_bool "has a slave lane" true (Astring_contains.contains out "slave");
  check_bool "gantt bars" true (String.contains out '#')

let test_gige_needs_bigger_batches () =
  (* Paper §2.2: on a high-latency network, small batches are
     latency-dominated; growing the batch recovers most of the loss. *)
  let sc =
    tiny_sc
    |> Workload.Scenario.with_net Netsim.Profile.gigabit_ethernet
    |> Workload.Scenario.with_queries (1 lsl 15)
  in
  let keys, queries = Dispatch.Runner.workload sc in
  let at batch =
    Dispatch.Run_result.per_key_ns
      (Dispatch.Runner.run
         (Workload.Scenario.with_batch sc (batch * 1024))
         ~method_id:Dispatch.Methods.C3 ~keys ~queries)
  in
  let small = at 8 and big = at 256 in
  check_bool
    (Printf.sprintf "8KB (%.0f) much worse than 256KB (%.0f) on GigE" small big)
    true
    (small > 1.5 *. big)

(* ------------------------------------------------------------------ *)
(* Ablations (smoke level: structure + no crashes at tiny scale) *)

let test_ablations_produce_tables () =
  let checks =
    [
      ("batch-overhead",
       Report.Table.rows
         (Dispatch.Ablation.batch_overhead ~batches:[ 8192; 65536 ]
            tiny_spec));
      ("masters", Report.Table.rows (Dispatch.Ablation.masters tiny_spec));
      ("slave-structure",
       Report.Table.rows (Dispatch.Ablation.slave_structure tiny_spec));
    ]
  in
  List.iter (fun (name, rows) -> check_bool name true (rows >= 2)) checks

let test_ablation_skew_runs () =
  let t = Dispatch.Ablation.skew ~exponents:[ 0.0; 1.0 ] tiny_spec in
  check_int "two rows" 2 (Report.Table.rows t)

let prop_methods_string_roundtrip =
  (* Every method id must survive of_string . to_string, and of_string
     must accept any case mangling of both the dashed ("C-3") and
     dash-free ("c3") spellings. *)
  QCheck.Test.make ~name:"Methods.of_string accepts case and dash variants"
    ~count:200
    QCheck.(triple (int_range 0 4) bool (list_of_size (Gen.return 4) bool))
    (fun (i, drop_dash, flips) ->
      let m = List.nth Dispatch.Methods.all i in
      let canonical = Dispatch.Methods.to_string m in
      let spelled =
        if drop_dash then
          String.concat "" (String.split_on_char '-' canonical)
        else canonical
      in
      let mangled =
        String.mapi
          (fun j c ->
            if List.nth flips (j mod 4) then
              if Char.lowercase_ascii c = c then Char.uppercase_ascii c
              else Char.lowercase_ascii c
            else c)
          spelled
      in
      Dispatch.Methods.of_string (Dispatch.Methods.to_string m) = Some m
      && Dispatch.Methods.of_string mangled = Some m)

let prop_partition_reassembles =
  QCheck.Test.make ~name:"partition slices reassemble the key set" ~count:100
    QCheck.(pair (int_range 1 20) (int_range 20 2000))
    (fun (parts, n) ->
      let keys = Array.init n (fun i -> (5 * i) + 1) in
      let p = Dispatch.Partition.make ~keys ~parts in
      let concat =
        Array.concat
          (List.init parts (fun s -> Dispatch.Partition.slice p s))
      in
      concat = keys)

let prop_owner_consistent_with_rank =
  QCheck.Test.make ~name:"owner's slice contains the query's rank" ~count:100
    QCheck.(triple (int_range 2 16) (int_range 32 1000) (int_range 0 10000))
    (fun (parts, n, q) ->
      let keys = Array.init n (fun i -> 7 * i) in
      let p = Dispatch.Partition.make ~keys ~parts in
      let s = Dispatch.Partition.owner p q in
      let rank = Index.Ref_impl.rank keys q in
      let base = Dispatch.Partition.base p s in
      rank >= base && rank <= base + Dispatch.Partition.slice_len p s)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "dispatch"
    [
      ( "methods",
        [
          tc "string roundtrip" `Quick test_methods_string_roundtrip;
          tc "distributed flag" `Quick test_methods_distributed;
        ] );
      ( "partition",
        [
          tc "bounds and slices" `Quick test_partition_bounds_and_slices;
          tc "delimiters and owner" `Quick test_partition_delimiters_and_owner;
          tc "base monotone" `Quick test_partition_base_monotone;
          tc "bad args" `Quick test_partition_bad_args;
        ] );
      ( "runs",
        [
          tc "method A" `Quick (method_sanity Dispatch.Methods.A);
          tc "method B" `Quick (method_sanity Dispatch.Methods.B);
          tc "method C-1" `Quick (method_sanity Dispatch.Methods.C1);
          tc "method C-2" `Quick (method_sanity Dispatch.Methods.C2);
          tc "method C-3" `Quick (method_sanity Dispatch.Methods.C3);
          tc "C byte accounting" `Quick test_method_c_byte_accounting;
          tc "determinism" `Quick test_determinism;
          tc "C variants close" `Quick test_c_variants_all_correct_and_close;
          tc "paper headline ordering" `Slow test_paper_headline_ordering;
          tc "per-key scale invariance" `Slow test_scale_invariance_of_per_key_cost;
          tc "bad configs rejected" `Quick test_method_c_rejects_bad_config;
          tc "layout refused before running" `Quick
            test_layout_refuses_before_running;
          tc "slave owns the pages it writes" `Quick
            test_slave_owns_written_pages;
          tc "slave scaling" `Slow test_more_slaves_help_method_c;
        ] );
      ("run_result", [ tc "helpers" `Quick test_run_result_helpers ]);
      ("calibration", [ tc "recovers parameters" `Slow test_calibration_recovers_parameters ]);
      ( "experiment",
        [
          tc "table1" `Quick test_experiment_table1;
          tc "fig3 structure" `Slow test_experiment_fig3_structure;
          tc "table3 structure" `Slow test_experiment_table3_structure;
          tc "fig4 structure" `Quick test_experiment_fig4_structure;
          tc "timeline" `Slow test_experiment_timeline;
          tc "gige batch claim" `Slow test_gige_needs_bigger_batches;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_methods_string_roundtrip;
            prop_partition_reassembles;
            prop_owner_consistent_with_rank;
          ] );
      ( "ablation",
        [
          tc "tables" `Slow test_ablations_produce_tables;
          tc "skew" `Slow test_ablation_skew_runs;
        ] );
    ]
