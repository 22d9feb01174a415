(* Dynamic-index runs (see dynamic.mli).  Two design notes the interface
   leaves out:

   - Method C forwards each update to its owner by the static
     delimiters, so routing stays consistent as keys come and go, and
     its per-slave oracle advances at master staging time: with a
     single master and non-overtaking channels, staging order equals
     slave processing order, so enqueue-time expectations are exact.
   - Drop, dup and delay faults reorder or replay delivery, and a slow
     node can outlive the retry timeout and cause the same replay: a
     replayed update batch would mutate the index twice.  Hence
     {!check}. *)

type stats = {
  updates : int;  (** updates in the stream *)
  applied : int;  (** effective state flips *)
  noops : int;  (** charged no-op updates *)
  lost_updates : int;  (** updates in crash-abandoned batches (C) *)
  seals : int;
  merges : int;
  majors : int;
  segments : int;  (** sealed segments live at end of run *)
  delta_entries : int;  (** delta entries at end of run *)
}

let stats_header =
  [
    "dyn.updates"; "dyn.applied"; "dyn.noops"; "dyn.lost_updates"; "dyn.seals";
    "dyn.merges"; "dyn.majors"; "dyn.segments"; "dyn.delta";
  ]

let stats_cells s =
  List.map string_of_int
    [
      s.updates; s.applied; s.noops; s.lost_updates; s.seals; s.merges;
      s.majors; s.segments; s.delta_entries;
    ]

let counters s =
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("dyn_updates", s.updates); ("dyn_applied", s.applied);
      ("dyn_noops", s.noops); ("dyn_lost_updates", s.lost_updates);
      ("dyn_seals", s.seals); ("dyn_merges", s.merges);
      ("dyn_majors", s.majors); ("dyn_segments", s.segments);
      ("dyn_delta_entries", s.delta_entries);
    ]

(* Sum segment-level accounting over a run's delta indexes (one for
   methods A/B, one per slave for method C). *)
let collect ~updates ~lost_updates segs =
  let sum f = List.fold_left (fun a sg -> a + f sg) 0 segs in
  let st f = sum (fun sg -> f (Index.Segments.stats sg)) in
  {
    updates;
    applied =
      st (fun s -> s.Index.Segments.inserts + s.Index.Segments.deletes);
    noops = st (fun s -> s.Index.Segments.noops);
    lost_updates;
    seals = st (fun s -> s.Index.Segments.seals);
    merges = st (fun s -> s.Index.Segments.merges);
    majors = st (fun s -> s.Index.Segments.majors);
    segments = sum Index.Segments.segment_count;
    delta_entries = sum Index.Segments.delta_entries;
  }

(* ------------------------------------------------------------------ *)
(* Workload: the first two splits are exactly [Runner.workload]'s, so a
   dynamic run indexes the same keys and answers the same queries as
   the static baseline; the update stream is a new third split, so
   zero-update static runs are bit-identical to before. *)

let workload (sc : Workload.Scenario.t) ~updates =
  let g = Prng.Splitmix.create sc.Workload.Scenario.seed in
  let g_keys = Prng.Splitmix.split g in
  let g_queries = Prng.Splitmix.split g in
  let g_updates = Prng.Splitmix.split g in
  let keys = Workload.Keygen.index_keys g_keys ~n:sc.Workload.Scenario.n_keys in
  let queries =
    Workload.Keygen.uniform_queries g_queries
      ~n:sc.Workload.Scenario.n_queries
  in
  let ops =
    Workload.Mutation.plan updates g_updates
      ~n_queries:sc.Workload.Scenario.n_queries
  in
  (keys, queries, ops)

(* ------------------------------------------------------------------ *)

let check ~faults (sc : Workload.Scenario.t) ~method_id =
  if not (Methods.is_distributed method_id) then Ok ()
  else if sc.Workload.Scenario.n_masters <> 1 then
    Error
      "method C requires a single master (per-slave update order is \
       defined by one staging stream)"
  else if
    faults.Fault.Spec.drop_p > 0.0 || faults.Fault.Spec.dup_p > 0.0
    || faults.Fault.Spec.delay_p > 0.0
  then
    Error
      "drop/dup/delay faults are unsupported (update streams require \
       in-order, exactly-once delivery)"
  else if faults.Fault.Spec.slow <> [] then
    Error
      "slow-node faults are unsupported (a slow slave can outlive the \
       retry timeout and replay update batches)"
  else Ok ()

let ops ~updates ~n_queries ops =
  let n_updates = Workload.Mutation.n_updates updates ~n_queries in
  Method_c.Updates
    {
      ops;
      policy = Workload.Mutation.policy updates;
      counters =
        (fun segs ~lost_updates ->
          counters (collect ~updates:n_updates ~lost_updates segs));
    }

let of_run (r : Run_result.t) =
  let get k =
    match Obs.Metrics.Snapshot.find r.Run_result.metrics ("dyn_" ^ k) with
    | Some (Obs.Metrics.Snapshot.Counter v) -> int_of_float v
    | _ -> invalid_arg ("Dynamic.of_run: no dyn_" ^ k ^ " counter")
  in
  { updates = get "updates"; applied = get "applied"; noops = get "noops";
    lost_updates = get "lost_updates"; seals = get "seals";
    merges = get "merges"; majors = get "majors"; segments = get "segments";
    delta_entries = get "delta_entries" }

let run ?faults (sc : Workload.Scenario.t) ~updates ~method_id =
  let keys, queries, stream = workload sc ~updates in
  Result.iter_error
    (fun msg -> invalid_arg ("Dynamic: " ^ msg))
    (check ~faults:(Option.value faults ~default:Fault.Spec.none) sc ~method_id);
  let n_queries = Array.length queries in
  let r =
    Runner.drive ?faults sc ~source:Method_c.Batch
      ~ops:(ops ~updates ~n_queries stream) ~method_id ~keys ~queries
  in
  (r, of_run r)
