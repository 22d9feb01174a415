open Simcore

module Spec = struct
  type t = {
    scenario : Workload.Scenario.t;
    methods : Methods.id list;
    batches : int list;
    jobs : int;
    observe : Observe.t;
    faults : Fault.Spec.t;
    arrival : Workload.Arrival.t;
    slo_ns : float;
    updates : Workload.Mutation.t;
  }

  let default =
    {
      scenario = Workload.Scenario.scaled;
      methods = Methods.all;
      batches = Workload.Scenario.fig3_batches;
      jobs = 1;
      observe = Observe.none;
      faults = Fault.Spec.none;
      arrival = Workload.Arrival.default;
      slo_ns = 1e6;
      updates = Workload.Mutation.none;
    }

  let with_scenario scenario t = { t with scenario }
  let with_methods methods t = { t with methods }
  let with_batches batches t = { t with batches }
  let with_jobs jobs t = { t with jobs = max 1 jobs }
  let with_observe observe t = { t with observe }

  let with_profile t =
    match t.observe.Observe.profile with
    | Some _ -> t
    | None ->
        with_observe
          { t.observe with Observe.profile = Some Observe.default_profile }
          t

  let with_tail_k k t =
    with_observe
      {
        t.observe with
        Observe.profile =
          Option.map
            (fun p -> { p with Observe.tail_k = max 0 k })
            t.observe.Observe.profile;
      }
      t

  let with_faults faults t = { t with faults }
  let with_arrival arrival t = { t with arrival }

  let with_slo slo_ns t =
    if slo_ns <= 0.0 then invalid_arg "Spec.with_slo: budget must be positive";
    { t with slo_ns }

  let with_updates updates t = { t with updates }
  let faulted t = not (Fault.Spec.is_none t.faults)
  let dynamic t = not (Workload.Mutation.is_none t.updates)
end

let with_run_instrumented spec body = Observe.record spec.Spec.observe body

(* ------------------------------------------------------------------ *)
(* Grids of runs *)

type axis =
  | Net | Machine | Masters | Zipf of float | Load of float
  | Update_ratio of float

type source =
  | Batch
  | Serve of { arrival : Workload.Arrival.t; arrivals : float array; slo_ns : float }

type ops =
  | Queries
  | Updates of { updates : Workload.Mutation.t; ops : Workload.Mutation.op array }

type cell = {
  method_id : Methods.id;
  scenario : Workload.Scenario.t;
  topology : Method_c.topology;
  keys : int array;
  queries : int array;
  source : source;
  ops : ops;
  axes : axis list;
}

let cell ?(topology = Method_c.Flat) ?(axes = []) scenario ~keys ~queries
    method_id =
  { method_id; scenario; topology; keys; queries; source = Batch;
    ops = Queries; axes }

let label { method_id; scenario = sc; topology; axes; _ } =
  let axis = function
    | Net -> "net=" ^ sc.Workload.Scenario.net.Netsim.Profile.name
    | Machine -> "machine=" ^ sc.Workload.Scenario.params.Cachesim.Mem_params.name
    | Masters -> Printf.sprintf "masters=%d" sc.Workload.Scenario.n_masters
    | Zipf s -> Printf.sprintf "zipf=%g" s
    | Load qps -> Printf.sprintf "load=%g" qps
    | Update_ratio u -> Printf.sprintf "u=%g" u
  in
  String.concat " "
    (Printf.sprintf "%s %s batch=%dKB" (Methods.to_string method_id)
       sc.Workload.Scenario.name (sc.Workload.Scenario.batch_bytes / 1024)
    :: (match topology with
       | Method_c.Flat -> []
       | Method_c.Routers r -> [ Printf.sprintf "routers=%d" r ])
    @ List.map axis axes)

type 'a grid = {
  cells : cell list;
  collect : (cell * Run_result.t) list -> 'a;
}

let cross ~rows ~cols cell collect =
  let n = List.length cols in
  {
    cells = List.concat_map (fun r -> List.map (cell r) cols) rows;
    collect =
      (fun results ->
        collect
          (List.mapi
             (fun i r ->
               (r, List.filteri (fun j _ -> j / n = i) (List.map snd results)))
             rows));
  }

let core_ops c =
  match c.ops with
  | Queries -> Method_c.Queries
  | Updates { updates; ops } ->
      Dynamic.ops ~updates ~n_queries:(Array.length c.queries) ops

(* Every refusal a cell can meet, so that [run_grid] makes them all
   before any cell runs. *)
let refusal (spec : Spec.t) c =
  let guard =
    match (c.source, c.ops) with
    | _, Queries -> Ok ()
    | Serve _, Updates { ops; _ } -> Serve.check ~method_id:c.method_id ~ops
    | Batch, Updates _ ->
        Dynamic.check ~faults:spec.Spec.faults c.scenario
          ~method_id:c.method_id
  in
  match
    (guard, Method_c.layout c.scenario ~ops:(core_ops c) ~topology:c.topology)
  with
  | Error msg, _ -> Some (Printf.sprintf "cannot run %s: %s" (label c) msg)
  | Ok (), Error msg when Methods.is_distributed c.method_id ->
      Some
        (Printf.sprintf "cannot lay out run %s on %d nodes: %s" (label c)
           c.scenario.Workload.Scenario.n_nodes msg)
  | Ok (), _ -> None

(* Each cell builds its own engine and only reads its inputs, so the
   sweep is deterministic at any worker count. *)
let run_cell (spec : Spec.t) c =
  match c.source with
  | Batch ->
      with_run_instrumented spec (fun () ->
          Runner.drive ~faults:spec.Spec.faults ~topology:c.topology
            c.scenario ~source:Method_c.Batch ~ops:(core_ops c)
            ~method_id:c.method_id ~keys:c.keys ~queries:c.queries)
  | Serve { arrival; arrivals; slo_ns } ->
      let updates, ops =
        match c.ops with
        | Queries -> (Workload.Mutation.none, [||])
        | Updates { updates; ops } -> (updates, ops)
      in
      (Serve.run_method ~faults:spec.Spec.faults ~observe:spec.Spec.observe
         ~updates ~ops c.scenario ~arrival ~slo_ns ~method_id:c.method_id
         ~keys:c.keys ~queries:c.queries ~arrivals)
        .Serve.run

(* A fault node keeps one role (master, router or slave, in
   [Method_c.layout]'s order) across the C-family cells of a grid. *)
let mixed_role (spec : Spec.t) cells =
  let role node c =
    match Method_c.layout c.scenario ~ops:(core_ops c) ~topology:c.topology with
    | Ok (m, r, _) when node < m + r -> if node < m then "master" else "router"
    | _ -> "slave"
  in
  let c_cells = List.filter (fun c -> Methods.is_distributed c.method_id) cells in
  List.find_map
    (fun node ->
      match List.sort_uniq compare (List.map (role node) c_cells) with
      | [] | [ _ ] -> None
      | roles ->
          Some
            (Printf.sprintf
               "--faults names node %d, whose role differs between runs (%s)"
               node (String.concat ", " roles)))
    (Fault.Spec.nodes spec.Spec.faults)

let run_grid (spec : Spec.t) { cells; collect } =
  match
    match List.find_map (refusal spec) cells with
    | None -> mixed_role spec cells
    | refused -> refused
  with
  | Some msg -> Error msg
  | None ->
      let results = Exec.sweep ~jobs:spec.Spec.jobs (run_cell spec) cells in
      Ok (collect results, List.map (fun (c, r) -> (label c, r)) results)

let scratch_tree (sc : Workload.Scenario.t) ~keys =
  let m = Machine.create (Engine.create ()) ~name:"scratch" sc.Workload.Scenario.params in
  Index.Nary_tree.build m keys

(* Tree shape (per-level node counts) of the Method A/B index for the
   analytical model, from an actual layout. *)
let model_shape sc ~keys =
  let tree = scratch_tree sc ~keys in
  let levels = Index.Nary_tree.levels tree in
  let counts = Array.init levels (fun i -> Index.Nary_tree.level_nodes tree (i + 1)) in
  let p = sc.Workload.Scenario.params in
  let node_bytes =
    Index.Nary_tree.node_words tree * p.Cachesim.Mem_params.word_bytes
  in
  Model.Predict.shape_of_counts counts
    ~lines_per_node:(max 1 (node_bytes / p.Cachesim.Mem_params.l2_line))

(* Height of Method B's cache-resident subtree groups, from the actual
   [Index.Buffered] plan. *)
let group_height sc ~keys =
  let tree = scratch_tree sc ~keys in
  let b = Index.Buffered.create tree in
  Array.fold_left max 1 (Index.Buffered.group_levels b)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let table1 (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, _ = Runner.workload sc in
  let p = sc.Workload.Scenario.params in
  let tree = scratch_tree sc ~keys in
  let info = Index.Nary_tree.info tree in
  let buffered = Index.Buffered.create tree in
  let spans = Index.Buffered.group_levels buffered in
  let bottom_span = spans.(Array.length spans - 1) in
  let subtree_bytes =
    Index.Nary_tree.subtree_nodes tree ~levels:bottom_span
    * info.Index.Layout_info.node_bytes
  in
  let root_span = spans.(0) in
  let root_subtree_bytes =
    Index.Nary_tree.subtree_nodes tree ~levels:root_span
    * info.Index.Layout_info.node_bytes
  in
  let n_slaves = sc.Workload.Scenario.n_nodes - 1 in
  let slave_keys = (sc.Workload.Scenario.n_keys + n_slaves - 1) / n_slaves in
  let csb =
    Index.Csb_tree.build
      (Machine.create (Engine.create ()) ~name:"scratch" p)
      (Array.init slave_keys (fun i -> 2 * i))
  in
  let t = Report.Table.create ~headers:[ "Parameter"; "Value" ] in
  Report.Table.add_rows t
    [
      [ "Number Of Keys On The Sorted Array"; string_of_int sc.Workload.Scenario.n_keys ];
      [ "Search Key Size"; Printf.sprintf "%d bytes" p.Cachesim.Mem_params.word_bytes ];
      [ "Index Tree Size";
        Printf.sprintf "%.2f MB" (float_of_int info.Index.Layout_info.total_bytes /. 1048576.0) ];
      [ "Subtree Size (except the root subtree) (in B)";
        Printf.sprintf "%d KB" (subtree_bytes / 1024) ];
      [ "Root Subtree Size (in B)"; Printf.sprintf "%d bytes" root_subtree_bytes ];
      [ "T (levels, in A, B)"; string_of_int info.Index.Layout_info.levels ];
      [ "L (slave levels, in C-1)"; string_of_int (Index.Csb_tree.levels csb) ];
      [ "Size of Node (in A, B)"; Printf.sprintf "%d bytes" info.Index.Layout_info.node_bytes ];
      [ "Fanout (in A, B)"; string_of_int info.Index.Layout_info.fanout ];
      [ "Keys per slave (in C)"; string_of_int slave_keys ];
    ];
  t

let table2 (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  Calibrate.table2
    (Calibrate.measure sc.Workload.Scenario.params sc.Workload.Scenario.net)

(* ------------------------------------------------------------------ *)
(* Figure 3 *)

type fig3_row = { batch_bytes : int; results : Run_result.t list }

let fig3 (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, queries = Runner.workload sc in
  cross ~rows:spec.Spec.batches ~cols:spec.Spec.methods
    (fun batch_bytes ->
      cell (Workload.Scenario.with_batch sc batch_bytes) ~keys ~queries)
    (List.map (fun (batch_bytes, results) -> { batch_bytes; results }))

let glyph_of = function
  | Methods.A -> 'a'
  | Methods.B -> 'b'
  | Methods.C1 -> '1'
  | Methods.C2 -> '2'
  | Methods.C3 -> '3'

(* The paper's query count (2^23): renders re-express simulated times as
   seconds for this many lookups, so they compare with the paper's axes
   whatever the simulated query count. *)
let paper_queries = 1 lsl 23

let render_fig3 ~(scenario : Workload.Scenario.t) rows =
  let buf = Buffer.create 4096 in
  let methods =
    match rows with
    | [] -> []
    | r :: _ -> List.map (fun (x : Run_result.t) -> x.Run_result.method_id) r.results
  in
  let headers =
    "Batch"
    :: List.concat_map
         (fun m -> [ Methods.to_string m ^ " s/8M"; Methods.to_string m ^ " idle" ])
         methods
  in
  let tbl = Report.Table.create ~headers in
  List.iter
    (fun { batch_bytes; results } ->
      let cells =
        Printf.sprintf "%d KB" (batch_bytes / 1024)
        :: List.concat_map
             (fun (r : Run_result.t) ->
               [
                 Printf.sprintf "%.3f" (Run_result.scaled_total_s r ~queries:paper_queries);
                 Report.Table.cell_pct r.Run_result.slave_idle;
               ])
             results
      in
      Report.Table.add_row tbl cells)
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "Figure 3: search time for %d keys (presented as seconds per %d \
        lookups), %d nodes\n\n"
       scenario.Workload.Scenario.n_queries paper_queries
       scenario.Workload.Scenario.n_nodes);
  Buffer.add_string buf (Report.Table.render tbl);
  Buffer.add_char buf '\n';
  (* The paper's second criterion (§4.1): response time.  Method C
     reaches its peak throughput at small batches, so its queries wait
     far less than Method B's. *)
  let resp = Report.Table.create
      ~headers:("Batch" :: List.map (fun m -> Methods.to_string m ^ " mean resp") methods)
  in
  List.iter
    (fun { batch_bytes; results } ->
      Report.Table.add_row resp
        (Printf.sprintf "%d KB" (batch_bytes / 1024)
        :: List.map
             (fun (r : Run_result.t) ->
               Simcore.Simtime.to_string r.Run_result.mean_response_ns)
             results))
    rows;
  Buffer.add_string buf "\nResponse time (query arrival to result delivery):\n\n";
  Buffer.add_string buf (Report.Table.render resp);
  Buffer.add_char buf '\n';
  let series =
    List.mapi
      (fun i m ->
        {
          Report.Ascii_plot.label = "method " ^ Methods.to_string m;
          glyph = glyph_of m;
          points =
            Array.of_list
              (List.map
                 (fun { batch_bytes; results } ->
                   let r = List.nth results i in
                   ( float_of_int batch_bytes,
                     Run_result.scaled_total_s r ~queries:paper_queries ))
                 rows);
        })
      methods
  in
  Buffer.add_string buf
    (Report.Ascii_plot.render ~logx:true ~x_label:"batch size (bytes)"
       ~y_label:"search time (s)" series);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Table 3 *)

type table3_row = {
  method_id : Methods.id;
  predicted_ns : float;
  simulated_ns : float;
  run : Run_result.t;
}

let table3 (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, queries = Runner.workload sc in
  let p = sc.Workload.Scenario.params in
  let nodes = sc.Workload.Scenario.n_nodes in
  let n_slaves = nodes - 1 in
  let shape = model_shape sc ~keys in
  let batch_keys = Workload.Scenario.queries_per_batch sc in
  let predictions =
    [
      (Methods.A, Model.Predict.method_a p shape ~normalize_nodes:nodes);
      ( Methods.B,
        Model.Predict.method_b p shape
          ~group_levels:(group_height sc ~keys)
          ~batch_keys ~normalize_nodes:nodes );
      ( Methods.C3,
        Model.Predict.method_c3 p sc.Workload.Scenario.net
          ~slave_keys:((Array.length keys + n_slaves - 1) / n_slaves)
          ~n_masters:1 ~n_slaves );
    ]
  in
  {
    cells = List.map (fun (m, _) -> cell sc ~keys ~queries m) predictions;
    collect =
      List.map2
        (fun (method_id, predicted_ns) (_, r) ->
          { method_id; predicted_ns; simulated_ns = r.Run_result.per_key_ns;
            run = r })
        predictions;
  }

let render_table3 ~(scenario : Workload.Scenario.t) rows =
  let tbl =
    Report.Table.create
      ~headers:
        [ "Strategy"; "predicted time"; "simulated time"; "accuracy" ]
  in
  List.iter
    (fun { method_id; predicted_ns; simulated_ns; _ } ->
      let seconds ns = ns *. float_of_int paper_queries /. 1e9 in
      let accuracy =
        1.0 -. (Float.abs (predicted_ns -. simulated_ns) /. simulated_ns)
      in
      Report.Table.add_row tbl
        [
          "Method " ^ Methods.to_string method_id;
          Printf.sprintf "%.2f s" (seconds predicted_ns);
          Printf.sprintf "%.2f s" (seconds simulated_ns);
          Report.Table.cell_pct accuracy;
        ])
    rows;
  Printf.sprintf
    "Table 3: normalized predicted and simulated running time for %d keys\n\
     (batch %d KB, %d nodes)\n\n%s"
    paper_queries
    (scenario.Workload.Scenario.batch_bytes / 1024)
    scenario.Workload.Scenario.n_nodes (Report.Table.render tbl)

(* ------------------------------------------------------------------ *)
(* Online serving *)

let serve ~loads (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let at qps = (Workload.Scenario.with_offered_load qps sc, [ Load qps ]) in
  let rows = if loads = [] then [ (sc, []) ] else List.map at loads in
  cross ~rows ~cols:spec.Spec.methods
    (fun (sc, axes) ->
      (* One workload per row, shared read-only by its cells. *)
      let arrival = Serve.effective sc spec.Spec.arrival in
      let keys, queries, arrivals, ops =
        Serve.workload ~updates:spec.Spec.updates sc ~arrival:spec.Spec.arrival
      in
      fun method_id ->
        {
          (cell ~axes sc ~keys ~queries method_id) with
          source = Serve { arrival; arrivals; slo_ns = spec.Spec.slo_ns };
          ops =
            (if Spec.dynamic spec then
               Updates { updates = spec.Spec.updates; ops }
             else Queries);
        })
    (List.concat_map (fun (_, runs) ->
         List.map
           (fun (run : Run_result.t) ->
             { Serve.run; serving = Option.get run.Run_result.serving })
           runs))

(* ------------------------------------------------------------------ *)
(* Figure 4 *)

type fig4_row = {
  year : int;
  a_ns : float;
  b_ns : float;
  c3_ns : float;
  c3_mm_ns : float;
}

let fig4 ?(years = 5) (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  let keys, _ = Runner.workload sc in
  let nodes = sc.Workload.Scenario.n_nodes in
  let n_slaves = nodes - 1 in
  let shape = model_shape sc ~keys in
  let group_levels = group_height sc ~keys in
  let batch_keys = Workload.Scenario.queries_per_batch sc in
  let slave_keys = (Array.length keys + n_slaves - 1) / n_slaves in
  List.init (years + 1) (fun year ->
      let y = float_of_int year in
      let p = Model.Trends.scale_mem sc.Workload.Scenario.params ~years:y in
      let net = Model.Trends.scale_net sc.Workload.Scenario.net ~years:y in
      {
        year;
        a_ns = Model.Predict.method_a p shape ~normalize_nodes:nodes;
        b_ns =
          Model.Predict.method_b p shape ~group_levels ~batch_keys
            ~normalize_nodes:nodes;
        c3_ns =
          Model.Predict.method_c3 p net ~slave_keys ~n_masters:1 ~n_slaves;
        (* Enough masters that dispatch never governs: the paper's
           assumption of unlimited aggregate network bandwidth. *)
        c3_mm_ns =
          Model.Predict.method_c3 p net ~slave_keys ~n_masters:n_slaves
            ~n_slaves;
      })

let timeline_traced ?(method_id = Methods.C3) (spec : Spec.t) =
  let sc = spec.Spec.scenario in
  (* A short slice keeps the chart readable: ~6 batches worth or 32k
     queries, whichever is larger. *)
  let n_queries =
    min sc.Workload.Scenario.n_queries
      (max (1 lsl 15) (6 * Workload.Scenario.queries_per_batch sc))
  in
  let sc = Workload.Scenario.with_queries n_queries sc in
  let keys, queries = Runner.workload sc in
  (* The Gantt chart reads the run's spans: from the session's tracer
     under a [trace] clause, else from a private one. *)
  let r =
    with_run_instrumented spec (fun () ->
        let tr =
          Option.value (Simcore.Trace.current ())
            ~default:(Simcore.Trace.create ())
        in
        let r =
          Simcore.Trace.with_recording tr (fun () ->
              Runner.run ~faults:spec.Spec.faults sc ~method_id ~keys ~queries)
        in
        { r with Run_result.trace = Some tr })
  in
  let tr = Option.get r.Run_result.trace in
  let rendered =
    Printf.sprintf
      "Method %s, %d queries, batch %d KB (%d messages, %.1f ns/key):\n\n%s"
      (Methods.to_string method_id) n_queries
      (sc.Workload.Scenario.batch_bytes / 1024)
      r.Run_result.messages r.Run_result.per_key_ns
      (Simcore.Trace.render_gantt tr)
  in
  (rendered, r)

let timeline ?method_id spec = fst (timeline_traced ?method_id spec)

let render_fig4 rows =
  let tbl =
    Report.Table.create
      ~headers:
        [
          "Year"; "A ns/key"; "B ns/key"; "C-3 ns/key"; "C-3 multi-master";
          "B / C-3(mm)";
        ]
  in
  List.iter
    (fun { year; a_ns; b_ns; c3_ns; c3_mm_ns } ->
      Report.Table.add_row tbl
        [
          string_of_int year;
          Report.Table.cell_f a_ns;
          Report.Table.cell_f b_ns;
          Report.Table.cell_f c3_ns;
          Report.Table.cell_f c3_mm_ns;
          Report.Table.cell_f (b_ns /. c3_mm_ns);
        ])
    rows;
  let series name glyph f =
    {
      Report.Ascii_plot.label = name;
      glyph;
      points =
        Array.of_list (List.map (fun r -> (float_of_int r.year, f r)) rows);
    }
  in
  "Figure 4: future trends based on the analytical model (average query \
   time per key)\n\n"
  ^ Report.Table.render tbl
  ^ "\n"
  ^ Report.Ascii_plot.render ~x_label:"year" ~y_label:"ns per key" ~y_min:0.0
      [
        series "method A" 'a' (fun r -> r.a_ns);
        series "method B" 'b' (fun r -> r.b_ns);
        series "method C-3 (1 master)" '3' (fun r -> r.c3_ns);
        series "method C-3 (multi-master)" 'm' (fun r -> r.c3_mm_ns);
      ]
