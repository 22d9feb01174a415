(* The simulator's benchmark: four workloads driven only through the
   library's public entry points (Runner, Serve.run_method, Dynamic.run
   and the matching [workload] generators), with host-time and
   simulated-time end-to-end metrics and a traced run that breaks the
   host time down layer by layer.

     suite.exe --list
     suite.exe [--workload NAME] [--seed N] [--seconds S]
               [--trace 0|1] [--traced FILE]

   One workload runs in this process: inputs are generated from the
   seed (timed several times; the median is [setup_s]), then timed
   passes over the workload's cells repeat until [--seconds] have gone
   by (at least three).  Host time is each cell's median over the
   passes, summed over the cells.  With
   [--trace 1] (or [--traced FILE]) one profiled pass and a
   microbenchmark of each layer's own public functions follow, and the
   per-layer metrics replace the end-to-end ones.  Without
   [--workload] every workload runs in turn, each in a child process of
   its own so that [peak_heap_mb] belongs to it alone.

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics].  Any broken check —
   a validation error, simulated numbers that differ between passes or
   between the traced and untraced runs, a profile that does not
   conserve the run's simulated time — names its cell, prints
   [correct: false] and exits 1. *)

module Sc = Workload.Scenario
module E = Dispatch.Experiment
module M = Dispatch.Methods
module R = Dispatch.Run_result
module Dyn = Dispatch.Dynamic
module Snap = Obs.Metrics.Snapshot
module J = Obs.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Metric catalogue: the single source of truth that [--list] prints
   and that BENCHMARK.json must match. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** End-to-end metrics only. *)
  moves : string;  (** The end-to-end metric a layer metric should move. *)
}

let e2e name unit better bound =
  { name; unit; better; bound = Some bound; moves = "" }

let end_to_end =
  [
    e2e "host_qps" "1/s" Higher 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_heap_mb" "MiB" Lower 0.10;
    e2e "sim_ns_per_key" "ns" Lower 0.10;
    e2e "sim_mean_ns" "ns" Lower 0.20;
    e2e "sim_p95_ns" "ns" Lower 0.10;
  ]

(* Phases the drivers tag their simulated cost with ([Machine.set_phase]
   and the network's [~phase] charges); anything else lands in
   [other], the profile's residual in [unattributed]. *)
let phases =
  [
    "lookup"; "dispatch"; "batch_xfer"; "reply"; "control"; "retry";
    "redispatch"; "serve"; "segment_probe"; "merge"; "update_forward";
    "slow_node"; "other"; "unattributed";
  ]

let share_methods = [ M.A; M.B; M.C3 ]

let per_layer =
  let l ?(better = Lower) name unit moves =
    { name; unit; better; bound = None; moves }
  in
  [
    l "workload.gen_s" "s" "setup_s";
    l "simcore.events_per_op" "events/op" "host_qps";
    l "simcore.host_ns_per_event" "ns" "host_qps";
    l "cachesim.accesses_per_op" "accesses/op" "host_qps";
    l "cachesim.host_ns_per_access" "ns" "host_qps";
    l "cachesim.host_ns_per_l1_hit" "ns" "host_qps";
    l "cachesim.host_ns_per_l2_hit" "ns" "host_qps";
    l "cachesim.host_ns_per_l2_miss" "ns" "host_qps";
    l "cachesim.host_ns_per_tlb_miss" "ns" "host_qps";
    l "cachesim.l1_miss_ratio" "ratio" "sim_ns_per_key";
    l "cachesim.l2_miss_ratio" "ratio" "sim_ns_per_key";
    l "cachesim.tlb_miss_ratio" "ratio" "host_qps";
    l ~better:Higher "cachesim.prefetch_useful_ratio" "ratio" "sim_ns_per_key";
    l "machine.mem_cost_share" "ratio" "sim_ns_per_key";
    l "index.host_ns_per_lookup" "ns" "host_qps";
    l "index.host_ns_per_update" "ns" "host_qps";
    l "index.host_ns_per_oracle_rank" "ns" "host_qps";
    l "index.host_ns_per_oracle_update" "ns" "host_qps";
    l "index.seals" "count" "sim_ns_per_key";
    l "index.merges" "count" "sim_ns_per_key";
    l "netsim.messages_per_op" "msgs/op" "host_qps";
    l "netsim.bytes_per_op" "B/op" "host_qps";
    l "netsim.host_ns_per_message" "ns" "host_qps";
    l "netsim.queue_ns_per_msg" "ns" "sim_p95_ns";
    l "fault.retries" "count" "sim_ns_per_key";
    l "fault.redispatches" "count" "sim_ns_per_key";
    l "fault.fallback_lookups" "count" "sim_ns_per_key";
    l "fault.msgs_dropped" "count" "sim_ns_per_key";
    l "dispatch.master_busy" "ratio" "sim_ns_per_key";
    l "dispatch.slave_idle" "ratio" "sim_ns_per_key";
    l "dispatch.queue_share" "ratio" "sim_p95_ns";
  ]
  @ List.map (fun p -> l ("dispatch.phase_share." ^ p) "ratio" "sim_ns_per_key")
      phases
  @ List.map
      (fun m -> l ("dispatch.run_share." ^ M.to_string m) "ratio" "host_qps")
      share_methods
  @ [
      l "gc.minor_words_per_op" "words/op" "host_qps";
      l "gc.promoted_words_per_op" "words/op" "peak_heap_mb";
      l "gc.major_collections" "count" "host_qps";
      l "obs.traced_overhead" "ratio" "";
      l "host.unexplained_share" "ratio" "";
    ]

let better_string = function Lower -> "lower" | Higher -> "higher"

(* ------------------------------------------------------------------ *)
(* Workloads *)

type outcome = { r : R.t; dyn : Dyn.stats option }

type cell = {
  label : string;
  meth : M.id;
  ops : int;  (** Simulated queries plus updates the cell performs. *)
  go : unit -> outcome;
}

type inputs = { cells : cell list; keys : int array; queries : int array }

type workload = { wname : string; why : string; setup : int -> inputs }

let kib n = n * 1024

(* The paper's 327,680-key index on 11 Pentium III nodes over Myrinet:
   1.3 MB of n-ary tree against a 512 KB L2, so A and B overflow the
   cache and C-3's partitions fit. *)
let paper seed = Sc.with_seed seed Sc.paper

let batch_cell sc ?faults ~keys ~queries meth kb =
  let sc = Sc.with_batch sc (kib kb) in
  {
    label = Printf.sprintf "%s@%dKB" (M.to_string meth) kb;
    meth;
    ops = sc.Sc.n_queries;
    go =
      (fun () ->
        { r = Dispatch.Runner.run ?faults sc ~method_id:meth ~keys ~queries;
          dyn = None });
  }

let batch_paper_index seed =
  let sc = Sc.with_queries (1 lsl 17) (paper seed) in
  let keys, queries = Dispatch.Runner.workload sc in
  let cell = batch_cell sc ~keys ~queries in
  {
    cells =
      [ cell M.A 128; cell M.B 8; cell M.B 128; cell M.B 1024; cell M.C3 8;
        cell M.C3 128; cell M.C3 1024 ];
    keys;
    queries;
  }

let serve_arrival = Workload.Arrival.poisson 2e5

(* Node epochs run on one domain: with two, the GC's top heap varied
   from 276 to 583 MiB between runs of one seed on a 2-vCPU host. *)
let serve_open_loop seed =
  let sc = paper seed |> Sc.with_clients 4 |> Sc.with_duration 5e8 in
  let arrival = serve_arrival in
  let keys, queries, arrivals, _ = Dispatch.Serve.workload sc ~arrival in
  let cell meth =
    {
      label = M.to_string meth;
      meth;
      ops = Array.length arrivals;
      go =
        (fun () ->
          let rep =
            Dispatch.Serve.run_method sc ~arrival ~slo_ns:1e6
              ~method_id:meth ~keys ~queries ~arrivals
          in
          { r = rep.Dispatch.Serve.run; dyn = None });
    }
  in
  { cells = [ cell M.A; cell M.B; cell M.C3 ]; keys; queries }

let dynamic_mix = { Workload.Mutation.none with Workload.Mutation.ratio = 0.1 }

(* [Dynamic.run] generates its own inputs from the scenario; the
   generator is still called here so that [setup_s] covers it and the
   op count is known. *)
let dynamic_updates seed =
  let sc = Sc.with_queries (1 lsl 15) (paper seed) in
  let keys, queries, ops = Dyn.workload sc ~updates:dynamic_mix in
  let cell meth =
    {
      label = Printf.sprintf "%s@128KB" (M.to_string meth);
      meth;
      ops = Array.length ops;
      go =
        (fun () ->
          let r, s = Dyn.run sc ~updates:dynamic_mix ~method_id:meth in
          { r; dyn = Some s });
    }
  in
  { cells = [ cell M.A; cell M.C3 ]; keys; queries }

let fault_spec = "drop:p=0.01+slow:node=2,factor=4+crash:node=3,at=2e6"

let faulted_failover seed =
  let sc = Sc.with_queries (1 lsl 19) (paper seed) in
  let keys, queries = Dispatch.Runner.workload sc in
  let faults =
    match Fault.Spec.parse fault_spec with
    | Ok f -> f
    | Error e -> failwith e
  in
  let cell = batch_cell sc ~faults ~keys ~queries M.C3 in
  { cells = [ cell 8; cell 128 ]; keys; queries }

let workloads =
  [
    {
      wname = "batch-paper-index";
      why =
        "closed batch drain of 2^17 queries over A, B and C-3: cachesim, \
         machine and index do the host work; simcore and netsim are nearly \
         idle";
      setup = batch_paper_index;
    };
    {
      wname = "serve-open-loop";
      why =
        "open-loop Poisson arrivals at 2e5 q/s for A, B and C-3: the simcore \
         event queue and netsim do the host work, C-3 queues at its master";
      setup = serve_open_loop;
    };
    {
      wname = "dynamic-updates";
      why =
        "0.1 updates per query for A and C-3: index segments are written \
         beside the read path, so a read-path gain that costs writes shows";
      setup = dynamic_updates;
    };
    {
      wname = "faulted-failover";
      why =
        "C-3 under drops, a slow node and a slave crash: the only workload \
         that runs fault verdicts, receive timeouts, retry and fallback";
      setup = faulted_failover;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Host-time spans, kept in memory and written at exit as Chrome
   trace_event JSON. *)

type span = {
  id : int;
  sname : string;
  parent : int option;
  cell_id : string;
  t0 : float;
  t1 : float;
}

let spans = ref []
let span_count = ref 0

let span ?parent ?(cell_id = "") sname f =
  incr span_count;
  let id = !span_count in
  let t0 = now () in
  let v = f id in
  spans := { id; sname; parent; cell_id; t0; t1 = now () } :: !spans;
  v

let trace_document ~pid ~workload ~origin =
  let event s =
    J.Obj
      [
        ("name", J.String s.sname);
        ("cat", J.String workload);
        ("ph", J.String "X");
        ("ts", J.Float ((s.t0 -. origin) *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int pid);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            [
              ("id", J.Int s.id);
              ( "parent",
                match s.parent with Some p -> J.Int p | None -> J.Null );
              ("workload", J.String workload);
              ("cell", J.String s.cell_id);
            ] );
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.rev_map event !spans));
      ("displayTimeUnit", J.String "ms");
    ]

let write_file path text =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Statistics helpers *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0.0 then 0.0 else num /. den
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let counter ?level name (r : R.t) =
  List.fold_left
    (fun acc (e : Snap.entry) ->
      let level_ok =
        match level with
        | None -> true
        | Some l -> List.assoc_opt "level" e.Snap.labels = Some l
      in
      match e.Snap.value with
      | Snap.Counter c when e.Snap.name = name && level_ok -> acc +. c
      | _ -> acc)
    0.0 r.R.metrics

(* Response time of a cell: the exact serving rollup for open-loop
   runs, the per-query response accumulator for batch drains. *)
let response (r : R.t) =
  match r.R.serving with
  | Some s -> (s.R.mean_ns, s.R.p95_ns)
  | None -> (r.R.mean_response_ns, r.R.p95_response_ns)

let failures (o : outcome) =
  o.r.R.validation_errors + o.r.R.degraded.R.lost_queries
  + match o.dyn with Some s -> s.Dyn.lost_updates | None -> 0

(* Every simulated number a run reports, as a digest: bit-identical
   between passes and between traced and untraced runs. *)
let fingerprint (o : outcome) =
  let r = o.r in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%h %h %h %h %h %h|" r.R.total_ns r.R.raw_ns
    r.R.mean_response_ns r.R.p95_response_ns r.R.slave_idle r.R.master_busy;
  List.iter (Printf.bprintf b "%s,") (R.to_cells r @ R.degraded_cells r);
  (match r.R.serving with
  | Some s -> List.iter (Printf.bprintf b "%s,") (R.serving_cells r s)
  | None -> ());
  (match o.dyn with
  | Some s -> List.iter (Printf.bprintf b "%s,") (Dyn.stats_cells s)
  | None -> ());
  Buffer.add_string b (J.to_string ~pretty:false (Snap.to_json r.R.metrics));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Per-layer host cost, timed on each layer's own public functions. *)

let time_ns f =
  let t0 = now () in
  f ();
  (now () -. t0) *. 1e9

(* simcore: processes that only delay — pure event-queue work. *)
let engine_ns_per_event () =
  let eng = Simcore.Engine.create () in
  for _ = 1 to 64 do
    Simcore.Engine.spawn eng (fun () ->
        for _ = 1 to 8192 do
          Simcore.Engine.delay eng 1.0
        done)
  done;
  let ns = time_ns (fun () -> Simcore.Engine.run eng) in
  ratio ns (float_of_int (Simcore.Engine.events_executed eng))

(* cachesim: host ns per access outcome.  The host cost of one simulated
   access depends on how it is classified (a TLB miss scans the whole
   fully associative TLB), so each outcome is priced on its own and a
   workload's access cost is its outcome counts times these prices. *)
type access_costs = {
  l1_hit : float;
  l2_hit : float;
  l2_miss : float;
  tlb_miss : float;
}

module H = Cachesim.Hierarchy

let stats_cost c (s : H.stats) =
  (float_of_int s.H.l1_hits *. c.l1_hit)
  +. (float_of_int s.H.l2_hits *. c.l2_hit)
  +. (float_of_int (s.H.seq_misses + s.H.rand_misses) *. c.l2_miss)
  +. (float_of_int s.H.tlb_misses *. c.tlb_miss)

(* Word references timed warm through the allocation-free path the
   machine uses, over four streams that each add one outcome to the
   previous ones: L1 hits, then L2 hits within the TLB's reach, then
   TLB misses within L2, then L2 misses.  Each price is what its stream
   costs beyond the outcomes already priced. *)
let access_costs ~(params : Cachesim.Mem_params.t) ~seed =
  let open Cachesim.Mem_params in
  let g = Prng.Splitmix.create seed in
  let n = 1 lsl 19 in
  let time addrs =
    let h = H.create params in
    let charge = [| 0.0; 0.0 |] in
    let go () =
      Array.iter (fun addr -> H.access_into h ~addr ~write:false ~charge) addrs
    in
    go ();
    H.reset_stats h;
    let ns = time_ns go in
    (ns, H.stats h)
  in
  let uniform bytes =
    let words = bytes / params.word_bytes in
    Array.init n (fun _ -> params.word_bytes * Prng.Splitmix.int g words)
  in
  (* Every line of a page in shuffled order, then a random next page of
     a region far larger than L2: each reference misses L2, and only one
     in [page_bytes / l2_line] misses the TLB. *)
  let paged bytes =
    let lines = params.page_bytes / params.l2_line in
    let order = Array.init lines Fun.id in
    Prng.Splitmix.shuffle g order;
    let pages = bytes / params.page_bytes in
    let page = ref 0 in
    Array.init n (fun i ->
        if i mod lines = 0 then page := Prng.Splitmix.int g pages;
        (!page * params.page_bytes) + (order.(i mod lines) * params.l2_line))
  in
  let price c (ns, s) count =
    ratio (ns -. stats_cost c s) (float_of_int count)
  in
  let c = { l1_hit = 0.0; l2_hit = 0.0; l2_miss = 0.0; tlb_miss = 0.0 } in
  let r = time (uniform (params.l1_size / 2)) in
  let c = { c with l1_hit = price c r (snd r).H.l1_hits } in
  let tlb_reach = params.tlb_entries * params.page_bytes in
  let r = time (uniform (min (params.l2_size / 4) (tlb_reach / 2))) in
  let c = { c with l2_hit = price c r (snd r).H.l2_hits } in
  let r = time (uniform (params.l2_size * 3 / 4)) in
  let c = { c with tlb_miss = price c r (snd r).H.tlb_misses } in
  let r = time (paged (64 * 1024 * 1024)) in
  { c with l2_miss = price c r ((snd r).H.seq_misses + (snd r).H.rand_misses) }

(* index: timed n-ary lookups of the workload's own queries on a fresh
   machine; returns host ns per lookup and the simulated access outcomes
   the lookups made. *)
let index_lookup ~params ~keys ~queries =
  let m = Machine.create (Simcore.Engine.create ()) ~name:"bench" params in
  let t = Index.Nary_tree.build m keys in
  let n = min (Array.length queries) (1 lsl 17) in
  let s0 = H.stats (Machine.hierarchy m) in
  let ns =
    time_ns (fun () ->
        for i = 0 to n - 1 do
          ignore (Index.Nary_tree.search t queries.(i))
        done)
  in
  (ns, n, H.sub_stats (H.stats (Machine.hierarchy m)) s0)

(* index: timed inserts and deletes on a fresh segmented index, keys
   drawn uniformly like the dynamic workload's update stream. *)
let index_update ~params ~keys ~seed =
  let m = Machine.create (Simcore.Engine.create ()) ~name:"bench" params in
  let seg = Index.Segments.create m keys in
  let g = Prng.Splitmix.create seed in
  let n = 1 lsl 14 in
  let ups = Array.init n (fun _ -> Prng.Splitmix.int g Index.Key.sentinel) in
  let s0 = H.stats (Machine.hierarchy m) in
  let ns =
    time_ns (fun () ->
        Array.iteri
          (fun i k ->
            ignore
              (if i land 1 = 0 then Index.Segments.insert seg k
               else Index.Segments.delete seg k))
          ups)
  in
  (ns, n, H.sub_stats (H.stats (Machine.hierarchy m)) s0)

(* index: the oracles every driver checks its answers against — a
   binary search per query, and for dynamic runs a sorted array whose
   effective inserts and deletes move every later key. *)
let oracle_costs ~keys ~queries ~seed =
  let n = min (Array.length queries) (1 lsl 17) in
  let rank_ns =
    time_ns (fun () ->
        for i = 0 to n - 1 do
          ignore (Sys.opaque_identity (Index.Ref_impl.rank keys queries.(i)))
        done)
  in
  let dyn = Index.Ref_impl.Dyn.create keys in
  let g = Prng.Splitmix.create seed in
  let ups =
    Array.init (1 lsl 11) (fun _ -> Prng.Splitmix.int g Index.Key.sentinel)
  in
  let update_ns =
    time_ns (fun () ->
        Array.iteri
          (fun i k ->
            ignore
              (if i land 1 = 0 then Index.Ref_impl.Dyn.insert dyn k
               else Index.Ref_impl.Dyn.delete dyn k))
          ups)
  in
  ( ratio rank_ns (float_of_int n),
    ratio update_ns (float_of_int (Array.length ups)) )

(* netsim: an isend/recv stream between two ranks; the engine events it
   schedules are priced at [ns_per_event] and taken out, leaving the
   network layer's own cost per message. *)
let net_ns_per_message ~net ~ns_per_event =
  let eng = Simcore.Engine.create () in
  let mpi = Netsim.Mpi.create eng net ~ranks:2 in
  let n = 1 lsl 15 in
  Simcore.Engine.spawn eng (fun () ->
      for i = 1 to n do
        Netsim.Mpi.isend mpi ~src:0 ~dst:1 ~size:64 i
      done);
  Simcore.Engine.spawn eng (fun () ->
      for _ = 1 to n do
        ignore (Netsim.Mpi.recv mpi ~rank:1 ())
      done);
  let ns = time_ns (fun () -> Simcore.Engine.run eng) in
  let events = float_of_int (Simcore.Engine.events_executed eng) in
  ratio (ns -. (events *. ns_per_event)) (float_of_int n)

(* ------------------------------------------------------------------ *)
(* One workload in this process *)

type pass = {
  wall : float;
  cell_walls : (cell * float) list;
  outcomes : outcome list;
  gc : Gc.stat * Gc.stat;  (** [Gc.quick_stat] before and after. *)
}

let profile_spec = E.Spec.(default |> with_profile |> with_tail_k 0)

let run_pass ~traced ~label cells =
  let run (c : cell) =
    if not traced then c.go ()
    else
      let dyn = ref None in
      let r =
        E.with_run_instrumented profile_spec (fun () ->
            let o = c.go () in
            dyn := o.dyn;
            o.r)
      in
      { r; dyn = !dyn }
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let timed =
    span label (fun parent ->
        List.map
          (fun c ->
            let t = now () in
            let o =
              span ~parent ~cell_id:c.label "dispatch.run" (fun _ -> run c)
            in
            (c, now () -. t, o))
          cells)
  in
  let wall = now () -. t0 in
  {
    wall;
    cell_walls = List.map (fun (c, dt, _) -> (c, dt)) timed;
    outcomes = List.map (fun (_, _, o) -> o) timed;
    gc = (gc0, Gc.quick_stat ());
  }

let setup_reps = 5
let min_passes = 3

let row name v =
  (name, v, List.find (fun m -> m.name = name) (end_to_end @ per_layer))

let print_rows title rows =
  let tbl =
    Report.Table.create
      ~headers:[ "metric"; "value"; "unit"; "better"; "moves" ]
  in
  List.iter
    (fun (name, v, m) ->
      Report.Table.add_row tbl
        [ name; Printf.sprintf "%.6g" v; m.unit; better_string m.better;
          m.moves ])
    rows;
  Printf.printf "%s\n%s" title (Report.Table.render tbl)

let print_cells cells outcomes ~cell_medians =
  let tbl =
    Report.Table.create
      ~headers:
        [ "cell"; "ops"; "host s"; "host ops/s"; "sim ns/key"; "sim mean ns";
          "sim p50 ns"; "sim p95 ns"; "sim p99 ns"; "samples"; "failed" ]
  in
  List.iter2
    (fun c (o : outcome) ->
      let dt = List.assoc c.label cell_medians in
      let mean, p95 = response o.r in
      let p50, p99, samples =
        match o.r.R.serving with
        | Some s ->
            ( Printf.sprintf "%.0f" s.R.p50_ns,
              Printf.sprintf "%.0f" s.R.p99_ns,
              string_of_int s.R.completed )
        | None -> ("-", "-", "-")
      in
      Report.Table.add_row tbl
        [ c.label; string_of_int c.ops; Printf.sprintf "%.3f" dt;
          Printf.sprintf "%.0f" (float_of_int c.ops /. dt);
          Printf.sprintf "%.2f" o.r.R.per_key_ns; Printf.sprintf "%.0f" mean;
          p50; Printf.sprintf "%.0f" p95; p99; samples;
          string_of_int (failures o) ])
    cells outcomes;
  print_string (Report.Table.render tbl)

let end_to_end_rows ~(first : pass) ~ops_per_pass ~pass_s ~setup_s =
  let outs = first.outcomes in
  (* Response times span five orders of magnitude across cells (an A
     lookup against a 1 MB batch's residence), so cells are summarised
     by their geometric mean: each cell moves it by its own ratio. *)
  let geomean f =
    exp (sum (fun o -> log (f o.r)) outs /. float_of_int (List.length outs))
  in
  (* Read after setup and one pass: later passes add nothing a user of
     one run would see, and their number depends on the host's speed. *)
  let top_heap = (snd first.gc).Gc.top_heap_words * (Sys.word_size / 8) in
  [
    row "host_qps" (float_of_int ops_per_pass /. pass_s);
    row "setup_s" setup_s;
    row "peak_heap_mb" (float_of_int top_heap /. 1048576.0);
    row "sim_ns_per_key"
      (ratio
         (sum (fun o -> o.r.R.total_ns) outs)
         (sum (fun o -> float_of_int o.r.R.n_queries) outs));
    row "sim_mean_ns" (geomean (fun r -> fst (response r)));
    row "sim_p95_ns" (geomean (fun r -> snd (response r)));
  ]

(* Per-layer numbers: counts from the first untraced pass's runs (they
   repeat exactly), phase shares from the traced pass's profiles, host
   costs from the layer microbenchmarks, host times from the passes. *)
let layer_rows ~seed ~(inputs : inputs) ~(untraced : pass list)
    ~(traced : pass) ~pass_s ~cell_medians ~setup_s =
  let params = Sc.paper.Sc.params and net = Sc.paper.Sc.net in
  let micro name f = span ("micro." ^ name) (fun _ -> f ()) in
  let ns_event = micro "simcore" engine_ns_per_event in
  let costs = micro "cachesim" (fun () -> access_costs ~params ~seed) in
  let lookup_ns, lookups, lookup_stats =
    micro "index.lookup" (fun () ->
        index_lookup ~params ~keys:inputs.keys ~queries:inputs.queries)
  in
  let update_ns, updates_timed, update_stats =
    micro "index.update" (fun () ->
        index_update ~params ~keys:inputs.keys ~seed)
  in
  let oracle_rank_ns, oracle_update_ns =
    micro "index.oracle" (fun () ->
        oracle_costs ~keys:inputs.keys ~queries:inputs.queries ~seed)
  in
  let ns_message =
    micro "netsim" (fun () -> net_ns_per_message ~net ~ns_per_event:ns_event)
  in
  let outs = (List.hd untraced).outcomes in
  let runs = List.map (fun o -> o.r) outs in
  let ops = sum (fun c -> float_of_int c.ops) inputs.cells in
  let total ?level name = sum (counter ?level name) runs in
  let miss_ratio level =
    let miss = total ~level "cache_misses" in
    ratio miss (miss +. total ~level "cache_hits")
  in
  let dyn f =
    sum
      (fun o -> match o.dyn with Some s -> float_of_int (f s) | None -> 0.0)
      outs
  in
  let deg f = sum (fun (r : R.t) -> float_of_int (f r.R.degraded)) runs in
  let c_runs =
    List.filter (fun (r : R.t) -> M.is_distributed r.R.method_id) runs
  in
  let c_weighted f =
    ratio
      (sum (fun (r : R.t) -> f r *. float_of_int r.R.n_queries) c_runs)
      (sum (fun (r : R.t) -> float_of_int r.R.n_queries) c_runs)
  in
  let serving f =
    sum
      (fun (r : R.t) -> match r.R.serving with Some s -> f s | None -> 0.0)
      runs
  in
  (* Simulated cost by phase, over the traced pass's profiles. *)
  let phase_ns = Hashtbl.create 16 in
  let add ph ns =
    let ph = if List.mem ph phases then ph else "other" in
    Hashtbl.replace phase_ns ph
      (ns +. Option.value ~default:0.0 (Hashtbl.find_opt phase_ns ph))
  in
  List.iter
    (fun o ->
      Option.iter
        (fun p ->
          List.iter
            (fun (e : Obs.Profile.entry) ->
              add (List.hd e.Obs.Profile.path) e.Obs.Profile.ns)
            (Obs.Profile.entries p);
          add "unattributed" (Obs.Profile.residual_ns p))
        o.r.R.profile)
    traced.outcomes;
  let raw = sum (fun o -> o.r.R.raw_ns) traced.outcomes in
  let phase_share ph =
    ratio (Option.value ~default:0.0 (Hashtbl.find_opt phase_ns ph)) raw
  in
  let run_share m =
    ratio
      (sum
         (fun c -> if c.meth = m then List.assoc c.label cell_medians else 0.)
         inputs.cells)
      (sum snd cell_medians)
  in
  (* Count x cost: the host time each layer's operations should take. *)
  let access_stats =
    {
      H.zero_stats with
      H.l1_hits = int_of_float (total "mem_l1_hits");
      l2_hits = int_of_float (total "mem_l2_hits");
      seq_misses = int_of_float (total "mem_seq_misses");
      rand_misses = int_of_float (total "mem_rand_misses");
      tlb_misses = int_of_float (total "mem_tlb_misses");
    }
  in
  let accesses = total "mem_accesses" in
  let ns_access = ratio (stats_cost costs access_stats) accesses in
  let queries = sum (fun (r : R.t) -> float_of_int r.R.n_queries) runs in
  let self ns n stats =
    Float.max 0.0 (ratio (ns -. stats_cost costs stats) (float_of_int n))
  in
  let model =
    [
      ("simcore events", total "engine_events_executed", ns_event);
      ("cachesim accesses", accesses, ns_access);
      ("netsim messages", total "net_messages_sent", ns_message);
      ("index lookups, own work", queries, self lookup_ns lookups lookup_stats);
      ("index updates, own work", dyn (fun s -> s.Dyn.updates),
       self update_ns updates_timed update_stats);
      ("index oracle ranks", queries, oracle_rank_ns);
      (* Replicated methods keep one oracle over every key; the C family
         one per slave partition, so its updates move a slave's share. *)
      ( "index oracle updates",
        sum
          (fun o ->
            match o.dyn with
            | None -> 0.0
            | Some s when M.is_distributed o.r.R.method_id ->
                float_of_int s.Dyn.updates /. float_of_int (o.r.R.n_nodes - 1)
            | Some s -> float_of_int s.Dyn.updates)
          outs,
        oracle_update_ns );
    ]
  in
  let explained_s = sum (fun (_, n, c) -> n *. c) model /. 1e9 in
  let tbl =
    Report.Table.create
      ~headers:[ "layer op"; "count/pass"; "host ns/op"; "host s/pass" ]
  in
  List.iter
    (fun (name, n, c) ->
      Report.Table.add_row tbl
        [ name; Printf.sprintf "%.0f" n; Printf.sprintf "%.2f" c;
          Printf.sprintf "%.3f" (n *. c /. 1e9) ])
    model;
  Printf.printf "count x cost: %.3f s of a %.3f s pass\n%s" explained_s pass_s
    (Report.Table.render tbl);
  let gc0, gc1 = (List.nth untraced (List.length untraced - 1)).gc in
  let messages = total "net_messages_sent" in
  [
    row "workload.gen_s" setup_s;
    row "simcore.events_per_op" (total "engine_events_executed" /. ops);
    row "simcore.host_ns_per_event" ns_event;
    row "cachesim.accesses_per_op" (accesses /. ops);
    row "cachesim.host_ns_per_access" ns_access;
    row "cachesim.host_ns_per_l1_hit" costs.l1_hit;
    row "cachesim.host_ns_per_l2_hit" costs.l2_hit;
    row "cachesim.host_ns_per_l2_miss" costs.l2_miss;
    row "cachesim.host_ns_per_tlb_miss" costs.tlb_miss;
    row "cachesim.l1_miss_ratio" (miss_ratio "L1");
    row "cachesim.l2_miss_ratio" (miss_ratio "L2");
    row "cachesim.tlb_miss_ratio" (ratio (total "mem_tlb_misses") accesses);
    row "cachesim.prefetch_useful_ratio"
      (ratio (total "prefetch_useful") (total "prefetch_fills"));
    row "machine.mem_cost_share"
      (ratio (total "mem_cost_ns") (total "node_busy_ns"));
    row "index.host_ns_per_lookup" (ratio lookup_ns (float_of_int lookups));
    row "index.host_ns_per_update"
      (ratio update_ns (float_of_int updates_timed));
    row "index.host_ns_per_oracle_rank" oracle_rank_ns;
    row "index.host_ns_per_oracle_update" oracle_update_ns;
    row "index.seals" (dyn (fun s -> s.Dyn.seals));
    row "index.merges" (dyn (fun s -> s.Dyn.merges));
    row "netsim.messages_per_op" (messages /. ops);
    row "netsim.bytes_per_op" (total "net_bytes_sent" /. ops);
    row "netsim.host_ns_per_message" ns_message;
    row "netsim.queue_ns_per_msg" (ratio (total "net_queue_ns") messages);
    row "fault.retries" (deg (fun d -> d.R.retries));
    row "fault.redispatches" (deg (fun d -> d.R.redispatches));
    row "fault.fallback_lookups" (deg (fun d -> d.R.fallback_lookups));
    row "fault.msgs_dropped" (deg (fun d -> d.R.msgs_dropped));
    row "dispatch.master_busy" (c_weighted (fun r -> r.R.master_busy));
    row "dispatch.slave_idle" (c_weighted (fun r -> r.R.slave_idle));
    row "dispatch.queue_share"
      (ratio
         (serving (fun s -> s.R.mean_queue_ns *. float_of_int s.R.completed))
         (serving (fun s -> s.R.mean_ns *. float_of_int s.R.completed)));
  ]
  @ List.map
      (fun ph -> row ("dispatch.phase_share." ^ ph) (phase_share ph))
      phases
  @ List.map
      (fun m -> row ("dispatch.run_share." ^ M.to_string m) (run_share m))
      share_methods
  @ [
      row "gc.minor_words_per_op"
        ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. ops);
      row "gc.promoted_words_per_op"
        ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. ops);
      row "gc.major_collections"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      row "obs.traced_overhead" (traced.wall /. pass_s);
      row "host.unexplained_share" (1.0 -. (explained_s /. pass_s));
    ]

let run_workload (w : workload) ~pid ~seed ~seconds ~traced =
  let origin = now () in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  (* Setup: generate the inputs [setup_reps] times and keep the last. *)
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let inputs = span "workload.gen" (fun _ -> w.setup seed) in
        (now () -. t0, inputs))
  in
  let setup_s = median (List.map fst setups) in
  let inputs = snd (List.nth setups (setup_reps - 1)) in
  let cells = inputs.cells in
  let ops_per_pass = List.fold_left (fun a c -> a + c.ops) 0 cells in
  let t_start = now () in
  let rec passes acc n =
    if n >= min_passes && now () -. t_start >= seconds then List.rev acc
    else passes (run_pass ~traced:false ~label:"pass" cells :: acc) (n + 1)
  in
  let untraced = passes [] 0 in
  let first = List.hd untraced in
  let prints = List.map fingerprint first.outcomes in
  let check what (p : pass) =
    List.iter2
      (fun c (o, fp) ->
        if o.r.R.validation_errors > 0 then
          violation "%s/%s %s: %d validation errors" w.wname c.label what
            o.r.R.validation_errors;
        if fingerprint o <> fp then
          violation "%s/%s %s: simulated metrics differ from the first pass"
            w.wname c.label what)
      cells
      (List.combine p.outcomes prints)
  in
  List.iteri (fun i p -> check (Printf.sprintf "pass %d" i) p) untraced;
  (* A pass's host time is the sum of each cell's median over the
     passes: host noise on a shared machine comes in bursts shorter than
     a pass, and per-cell medians drop the cells a burst hit. *)
  let cell_medians =
    List.map
      (fun c ->
        ( c.label,
          median
            (List.map (fun (p : pass) -> List.assq c p.cell_walls) untraced) ))
      cells
  in
  let pass_s = sum snd cell_medians in
  let n_passes = List.length untraced in
  let failed_in (p : pass) =
    List.fold_left (fun a o -> a + failures o) 0 p.outcomes
  in
  let failed_per_pass = failed_in first in
  Printf.printf "workload %s  seed %d  %d passes of %d ops  pass %.3f s\n"
    w.wname seed n_passes ops_per_pass pass_s;
  Printf.printf "pass walls (s): %s\n"
    (String.concat " "
       (List.map (fun (p : pass) -> Printf.sprintf "%.3f" p.wall) untraced));
  print_cells cells first.outcomes ~cell_medians;
  Printf.printf "sim digest %s\n"
    (Digest.to_hex (Digest.string (String.concat "" prints)));
  let metrics, attempted, failed =
    match traced with
    | None ->
        let rows =
          end_to_end_rows ~first ~ops_per_pass ~pass_s ~setup_s
        in
        print_rows "end-to-end" rows;
        (rows, ops_per_pass * n_passes, failed_per_pass * n_passes)
    | Some _ ->
        let tp = run_pass ~traced:true ~label:"pass.traced" cells in
        check "traced pass" tp;
        List.iter2
          (fun c o ->
            match o.r.R.profile with
            | Some p when Obs.Profile.conserved p -> ()
            | Some _ ->
                violation "%s/%s traced pass: profile total differs from raw_ns"
                  w.wname c.label
            | None -> violation "%s/%s traced pass: no profile" w.wname c.label)
          cells tp.outcomes;
        let rows =
          layer_rows ~seed ~inputs ~untraced ~traced:tp ~pass_s ~cell_medians
            ~setup_s
        in
        print_rows "per-layer (traced)" rows;
        ( rows,
          ops_per_pass * (n_passes + 1),
          (failed_per_pass * n_passes) + failed_in tp )
  in
  Option.iter
    (fun path ->
      write_file path
        (J.to_string (trace_document ~pid ~workload:w.wname ~origin));
      Printf.printf "spans written to %s\n" path)
    traced;
  List.iter (Printf.printf "VIOLATION %s\n") (List.rev !violations);
  let correct = !violations = [] in
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, v, m) ->
                 ( name,
                   J.Obj [ ("value", J.Float v); ("unit", J.String m.unit) ] ))
               metrics) );
      ]
  in
  print_endline (J.to_string ~pretty:false result);
  if correct then 0 else 1

(* ------------------------------------------------------------------ *)
(* Catalogue listing and the BENCHMARK.json drift check *)

let list_lines () =
  List.map (fun w -> Printf.sprintf "workload %s\t%s" w.wname w.why) workloads
  @ List.map
      (fun m ->
        Printf.sprintf "end_to_end %s %s %s %g" m.name m.unit
          (better_string m.better) (Option.get m.bound))
      end_to_end
  @ List.map
      (fun m ->
        Printf.sprintf "per_layer %s %s %s" m.name m.unit
          (better_string m.better))
      per_layer

let lines_of_benchmark_json path =
  let j = J.of_string_exn (read_file path) in
  let items key =
    match J.member key j with Some l -> J.to_list_exn l | None -> []
  in
  let str k x =
    match J.member k x with Some v -> J.to_string_exn v | None -> "?"
  in
  List.map
    (fun x -> Printf.sprintf "workload %s\t%s" (str "name" x) (str "why" x))
    (items "workloads")
  @ List.map
      (fun x ->
        let bound =
          match J.member "bound" x with Some b -> J.to_float_exn b | None -> nan
        in
        Printf.sprintf "end_to_end %s %s %s %g" (str "name" x) (str "unit" x)
          (str "better" x) bound)
      (items "end_to_end")
  @ List.map
      (fun x ->
        Printf.sprintf "per_layer %s %s %s" (str "name" x) (str "unit" x)
          (str "better" x))
      (items "per_layer")

(* BENCHMARK.json at the working directory (the repository root when
   run through run.py) must list exactly this catalogue. *)
let drift () =
  let path = "BENCHMARK.json" in
  if not (Sys.file_exists path) then []
  else
    let ours = list_lines () in
    let theirs =
      try lines_of_benchmark_json path
      with Failure e -> [ "unreadable BENCHMARK.json: " ^ e ]
    in
    List.filter_map
      (fun l ->
        if List.mem l theirs then None
        else Some ("missing from BENCHMARK.json: " ^ l))
      ours
    @ List.filter_map
        (fun l ->
          if List.mem l ours then None else Some ("not in the suite: " ^ l))
        theirs

(* ------------------------------------------------------------------ *)
(* All workloads, one child process each *)

let run_children ~seed ~seconds ~traced =
  let part w =
    Option.map (fun f -> Printf.sprintf "%s.%s.part" f w.wname) traced
  in
  let codes =
    List.map
      (fun w ->
        let args =
          [ Sys.executable_name; "--workload"; w.wname; "--seed";
            string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
          @ match part w with Some f -> [ "--traced"; f ] | None -> []
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args)
            Unix.stdin Unix.stdout Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1)
      workloads
  in
  (match traced with
  | Some path ->
      let events =
        List.concat_map
          (fun w ->
            match part w with
            | Some f when Sys.file_exists f ->
                let doc = J.of_string_exn (read_file f) in
                Sys.remove f;
                (match J.member "traceEvents" doc with
                | Some l -> J.to_list_exn l
                | None -> [])
            | _ -> [])
          workloads
      in
      write_file path
        (J.to_string
           (J.Obj
              [ ("traceEvents", J.List events);
                ("displayTimeUnit", J.String "ms") ]));
      Printf.printf "spans of every workload written to %s\n" path
  | None -> ());
  List.fold_left max 0 codes

let () =
  let workload = ref None in
  let seed = ref 2005 in
  let seconds = ref 20.0 in
  let trace = ref 0 in
  let traced = ref None in
  let list = ref false in
  let usage =
    "suite.exe [--list] [--workload NAME] [--seed N] [--seconds S] [--trace \
     0|1] [--traced FILE]"
  in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload" );
      ("--seed", Arg.Set_int seed, "N input seed (default 2005)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S measure passes for S seconds (default 20)" );
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run, per-layer metrics");
      ( "--traced",
        Arg.String (fun f -> traced := Some f),
        "FILE traced run; write spans to FILE" );
      ("--list", Arg.Set list, " print workloads and metrics, run nothing");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !list then List.iter print_endline (list_lines ())
  else begin
    (match drift () with
    | [] -> ()
    | errs ->
        List.iter prerr_endline errs;
        exit 2);
    let traced =
      match (!traced, !trace) with
      | Some f, _ -> Some f
      | None, 1 ->
          if not (Sys.file_exists ".perfbench") then
            Sys.mkdir ".perfbench" 0o755;
          Some
            (Printf.sprintf ".perfbench/%s-%d.trace.json"
               (Option.value ~default:"all" !workload)
               !seed)
      | None, _ -> None
    in
    let code =
      match !workload with
      | None -> run_children ~seed:!seed ~seconds:!seconds ~traced
      | Some name -> (
          match List.find_index (fun w -> w.wname = name) workloads with
          | None ->
              prerr_endline ("unknown workload " ^ name);
              2
          | Some i ->
              run_workload (List.nth workloads i) ~pid:(i + 1) ~seed:!seed
                ~seconds:!seconds ~traced)
    in
    exit code
  end
