(* Host wall-clock throughput harness: how fast the simulator itself
   runs, as opposed to how fast the simulated cluster is.  Every other
   number in this repo is simulated nanoseconds; these are real seconds
   on the build host, so the artifact is a *trajectory* (an append-only
   log of labelled measurements) rather than a bit-exact golden — the
   committed file records the before/after of each optimisation pass on
   one host, and the CI gate over it is advisory (warn-only).

   Two measured families, mirroring the baseline gate's coverage:

   - the fig3 grid cells (CI scenario, three batch sizes spanning the
     sweep, methods A / B / C-3): the batch drivers' steady-state
     engine + cache hot path;
   - the ci-serve saturation cell: the open-loop serving drivers pushed
     to the master's saturation point, where the per-query sync path
     (admission pacing, queueing, delivery timestamps) dominates.

   Each cell reports simulated-queries/sec and engine-events/sec of
   host wall time, best of [repeats] runs (the minimum wall time is the
   least-noise estimator on a shared host). *)

open Dispatch

type cell = {
  key : string;
  queries : int;
  events : int;
  wall_s : float;
  qps : float;
  eps : float;
}

(* Host allocation counters around one measurement pass
   ([Gc.quick_stat] deltas).  Like {!Exec.host_stats}' wall-clock totals they
   are host-side provenance, suppressed under SOURCE_DATE_EPOCH. *)
type gc = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

type sample = {
  label : string;
  repeats : int;
  cells : cell list;
  gc : gc option;
}

(* ------------------------------------------------------------------ *)
(* Scenario under measurement *)

let fig3_methods = [ Methods.A; Methods.B; Methods.C3 ]
let fig3_batches = Baseline.batches

(* The ci-serve scenario of the baseline gate, pushed to saturation:
   4e5 offered qps is Method B's capacity knee and holds Method C-3's
   master at ~99% busy, and the horizon is stretched so one run is long
   enough to time (the gate's 2 ms horizon is over in microseconds of
   host time). *)
let serve_scenario () =
  let spec = Baseline.serve_spec ~jobs:1 in
  let sc = Experiment.Spec.scenario spec in
  Workload.Scenario.with_duration 4e7 sc

let serve_arrival = Workload.Arrival.poisson 4e5
let serve_slo_ns = 1e6
let serve_methods = [ Methods.B; Methods.C3 ]

(* ------------------------------------------------------------------ *)
(* Measurement *)

let events_of (r : Run_result.t) =
  match
    Obs.Metrics.Snapshot.find r.Run_result.metrics "engine_events_executed"
  with
  | Some (Obs.Metrics.Snapshot.Counter c) -> int_of_float c
  | _ -> 0

let time_cell ~repeats ~key ~queries f =
  let best = ref infinity in
  let events = ref 0 in
  for _ = 1 to max 1 repeats do
    let t0 = Unix.gettimeofday () in
    let r : Run_result.t = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if r.Run_result.validation_errors > 0 then
      failwith (Printf.sprintf "Throughput: %s has validation errors" key);
    events := events_of r;
    if dt < !best then best := dt
  done;
  let wall_s = if !best > 0.0 then !best else 1e-9 in
  {
    key;
    queries;
    events = !events;
    wall_s;
    qps = float_of_int queries /. wall_s;
    eps = float_of_int !events /. wall_s;
  }

let fig3_cells ~repeats ~batches ~methods =
  let sc = Workload.Scenario.ci in
  let keys, queries = Runner.workload sc in
  List.concat_map
    (fun batch_bytes ->
      let sc = Workload.Scenario.with_batch sc batch_bytes in
      List.map
        (fun method_id ->
          let key =
            Printf.sprintf "fig3/%s/batch=%dKB"
              (Methods.to_string method_id)
              (batch_bytes / 1024)
          in
          time_cell ~repeats ~key ~queries:sc.Workload.Scenario.n_queries
            (fun () -> Runner.run sc ~method_id ~keys ~queries))
        methods)
    batches

let serve_cells ~repeats ~duration_ns ~methods =
  let sc = Workload.Scenario.with_duration duration_ns (serve_scenario ()) in
  let keys, queries, arrivals, _ops = Serve.workload sc ~arrival:serve_arrival in
  List.map
    (fun method_id ->
      let key =
        Printf.sprintf "serve/%s/%s" sc.Workload.Scenario.name
          (Methods.to_string method_id)
      in
      time_cell ~repeats ~key ~queries:(Array.length arrivals) (fun () ->
          let { Serve.run; _ } =
            Serve.run_method sc ~arrival:serve_arrival ~slo_ns:serve_slo_ns
              ~method_id ~keys ~queries ~arrivals
          in
          run))
    methods

(* Mixed update/query stream over the dynamic Segments index: times the
   log-structured probe/seal/merge path the static families never
   touch.  New keys extend the trajectory; [advisory] only compares
   cells with equal keys, so older BENCH_*.json entries stay valid. *)
let dynamic_updates =
  { Workload.Mutation.none with Workload.Mutation.ratio = 0.1 }

let dynamic_cells ~repeats ~methods =
  let sc = Workload.Scenario.ci in
  List.map
    (fun method_id ->
      let key =
        Printf.sprintf "dynamic/%s/u=%g"
          (Methods.to_string method_id)
          dynamic_updates.Workload.Mutation.ratio
      in
      time_cell ~repeats ~key ~queries:sc.Workload.Scenario.n_queries
        (fun () -> fst (Dynamic.run sc ~updates:dynamic_updates ~method_id)))
    methods

let capture_gc f =
  let before = Gc.quick_stat () in
  let r = f () in
  let after = Gc.quick_stat () in
  let gc =
    if Obs.Manifest.reproducible () then None
    else
      Some
        {
          minor_words = after.Gc.minor_words -. before.Gc.minor_words;
          promoted_words = after.Gc.promoted_words -. before.Gc.promoted_words;
          minor_collections =
            after.Gc.minor_collections - before.Gc.minor_collections;
          major_collections =
            after.Gc.major_collections - before.Gc.major_collections;
          top_heap_words = after.Gc.top_heap_words;
        }
  in
  (r, gc)

let measure ?(smoke = false) ~label () =
  let repeats = if smoke then 1 else 3 in
  let cells, gc =
    capture_gc (fun () ->
        if smoke then
          (* One small cell per family: enough to exercise the measured
             paths and sanity-check the committed trajectory, cheap
             enough for every CI push.  Smoke cells run at reduced scale
             where per-run setup is a visible fraction of the wall time,
             so they get their own key namespace — {!advisory} only ever
             compares cells with equal keys. *)
          List.map
            (fun c -> { c with key = "smoke/" ^ c.key })
            (fig3_cells ~repeats ~batches:[ 128 * 1024 ]
               ~methods:[ Methods.B ]
            @ serve_cells ~repeats ~duration_ns:4e6 ~methods:[ Methods.C3 ]
            @ dynamic_cells ~repeats ~methods:[ Methods.C3 ])
        else
          fig3_cells ~repeats ~batches:fig3_batches ~methods:fig3_methods
          @ serve_cells ~repeats ~duration_ns:4e7 ~methods:serve_methods
          @ dynamic_cells ~repeats ~methods:[ Methods.A; Methods.C3 ])
  in
  { label; repeats; cells; gc }

(* ------------------------------------------------------------------ *)
(* JSON round trip: manifest-headed trajectory artifact *)

let cell_to_json c =
  Obs.Json.Obj
    [
      ("key", Obs.Json.String c.key);
      ("queries", Obs.Json.Int c.queries);
      ("events", Obs.Json.Int c.events);
      ("wall_s", Obs.Json.Float c.wall_s);
      ("qps", Obs.Json.Float c.qps);
      ("eps", Obs.Json.Float c.eps);
    ]

let gc_to_json g =
  Obs.Json.Obj
    [
      ("minor_words", Obs.Json.Float g.minor_words);
      ("promoted_words", Obs.Json.Float g.promoted_words);
      ("minor_collections", Obs.Json.Int g.minor_collections);
      ("major_collections", Obs.Json.Int g.major_collections);
      ("top_heap_words", Obs.Json.Int g.top_heap_words);
    ]

let sample_to_json s =
  Obs.Json.Obj
    (("label", Obs.Json.String s.label)
     :: ("repeats", Obs.Json.Int s.repeats)
     :: ("cells", Obs.Json.List (List.map cell_to_json s.cells))
     ::
     (match s.gc with
     | Some g -> [ ("gc", gc_to_json g) ]
     | None -> []))

let manifest () =
  Obs.Manifest.create ~generator:"bench --throughput"
    [
      ("scenario", Obs.Json.String "ci");
      ("serve_scenario", Obs.Json.String "ci-serve");
      ("arrival", Obs.Json.String (Workload.Arrival.to_string serve_arrival));
      ( "methods",
        Obs.Json.List
          (List.map
             (fun m -> Obs.Json.String (Methods.to_string m))
             fig3_methods) );
      ( "batches",
        Obs.Json.List (List.map (fun b -> Obs.Json.Int b) fig3_batches) );
    ]

let cell_of_json j =
  {
    key = Obs.Json.to_string_exn (Doc.field "key" j);
    queries = Obs.Json.to_int_exn (Doc.field "queries" j);
    events = Obs.Json.to_int_exn (Doc.field "events" j);
    wall_s = Obs.Json.to_float_exn (Doc.field "wall_s" j);
    qps = Obs.Json.to_float_exn (Doc.field "qps" j);
    eps = Obs.Json.to_float_exn (Doc.field "eps" j);
  }

let gc_of_json j =
  {
    minor_words = Obs.Json.to_float_exn (Doc.field "minor_words" j);
    promoted_words = Obs.Json.to_float_exn (Doc.field "promoted_words" j);
    minor_collections = Obs.Json.to_int_exn (Doc.field "minor_collections" j);
    major_collections = Obs.Json.to_int_exn (Doc.field "major_collections" j);
    top_heap_words = Obs.Json.to_int_exn (Doc.field "top_heap_words" j);
  }

let sample_of_json j =
  {
    label = Obs.Json.to_string_exn (Doc.field "label" j);
    repeats = Obs.Json.to_int_exn (Doc.field "repeats" j);
    cells =
      List.map cell_of_json (Obs.Json.to_list_exn (Doc.field "cells" j));
    gc = Option.map gc_of_json (Obs.Json.member "gc" j);
  }

let of_json = Doc.of_json ~section:"trajectory" sample_of_json
let load = Doc.load ~section:"trajectory" sample_of_json

let append ~path sample =
  let existing =
    if Sys.file_exists path then
      match load path with Ok s -> s | Error e -> failwith e
    else []
  in
  let samples = existing @ [ sample ] in
  Doc.save path ~manifest:(manifest ()) ~section:"trajectory"
    (List.map sample_to_json samples);
  samples

(* ------------------------------------------------------------------ *)
(* Advisory regression check (warn-only: wall-clock numbers from a
   different host or a loaded CI runner are not comparable enough to
   fail a gate on). *)

let advisory_threshold = 0.5

let advisory ~(reference : sample) ~(current : sample) =
  List.filter_map
    (fun (c : cell) ->
      match List.find_opt (fun (r : cell) -> r.key = c.key) reference.cells with
      | Some r when c.qps < advisory_threshold *. r.qps ->
          Some
            (Printf.sprintf
               "WARNING: %s at %.0f q/s, under %.0f%% of trajectory entry \
                %S (%.0f q/s) — possible host-side regression (advisory \
                only)"
               c.key c.qps
               (100.0 *. advisory_threshold)
               reference.label r.qps)
      | _ -> None)
    current.cells

(* ------------------------------------------------------------------ *)
(* Rendering *)

let speedup ~(from_ : sample) ~(to_ : sample) =
  List.filter_map
    (fun (c : cell) ->
      match List.find_opt (fun (r : cell) -> r.key = c.key) from_.cells with
      | Some r when r.qps > 0.0 -> Some (c.key, c.qps /. r.qps)
      | _ -> None)
    to_.cells

let render_sample s =
  let tbl =
    Report.Table.create
      ~headers:[ "cell"; "queries"; "events"; "wall"; "queries/s"; "events/s" ]
  in
  List.iter
    (fun c ->
      Report.Table.add_row tbl
        [
          c.key;
          string_of_int c.queries;
          string_of_int c.events;
          Printf.sprintf "%.3f s" c.wall_s;
          Printf.sprintf "%.0f" c.qps;
          Printf.sprintf "%.0f" c.eps;
        ])
    s.cells;
  let gc_lines =
    match s.gc with
    | None -> ""
    | Some g ->
        Printf.sprintf
          "host GC: %.3g minor words, %.3g promoted, %d minor / %d major \
           collections, top heap %d words\n"
          g.minor_words g.promoted_words g.minor_collections
          g.major_collections g.top_heap_words
  in
  Printf.sprintf "throughput sample %S (best of %d):\n%s%s" s.label s.repeats
    (Report.Table.render tbl)
    gc_lines

let render_trajectory samples =
  match samples with
  | [] -> "empty throughput trajectory\n"
  | first :: _ ->
      let last = List.nth samples (List.length samples - 1) in
      let per_sample = String.concat "\n" (List.map render_sample samples) in
      if first == last then per_sample
      else
        per_sample ^ "\n"
        ^ String.concat "\n"
            (List.map
               (fun (key, x) ->
                 Printf.sprintf "speedup %s: %.2fx (%S -> %S)" key x
                   first.label last.label)
               (speedup ~from_:first ~to_:last))
        ^ "\n"
