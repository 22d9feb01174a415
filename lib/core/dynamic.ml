(* Dynamic-index runs: the batch protocols re-run over a log-structured
   [Index.Segments] index with an interleaved update/query stream from
   [Workload.Mutation].  This module holds only what is particular to
   them — the update/segment stats, the op-stream workload and the
   fault guard — and [run] hands one [Updates] op stream to
   [Runner.drive], which picks the core:

   - Methods A and B run [Replicated.drive]: one simulated node
     processes the whole stream, applying every update to its local
     delta index (and eating the cache dirtying), and the cluster
     makespan normalizes only the query work by [n_nodes] — replicated
     update work runs on every node, so it does not divide.
   - Method C runs [Method_c.drive], which forwards each update to the
     owning slave's partition, master-mediated exactly like query
     dispatch: updates are routed through the delimiter table under
     phase ["update_forward"], ride the per-slave staging buffers, and
     mutate that slave's in-cache [Segments] partition on arrival.
     Partition ownership is by the static delimiters
     (forward-to-owner), so routing stays consistent as keys come and
     go.

   Validation is oracle-exact and never-silently-wrong: every returned
   rank is checked against a [Ref_impl.Dyn] sorted-array oracle replayed
   to the same point of the stream.  For Method C the per-slave oracle
   advances at master staging time — with a single master and
   non-overtaking channels, staging order equals slave processing
   order, so enqueue-time expectations are exact.

   Faulted dynamic runs (Method C; A and B ignore faults) support the
   crash / degrade / failover families only.  Drop, dup and delay
   faults reorder or replay delivery, which breaks the in-order update
   semantics (a replayed update batch would mutate the index twice);
   slow nodes can outlive the retry timeout and cause the same replay.
   Fallback resolution is ignored: the master's fallback index is a
   static snapshot that cannot answer post-update queries, so a dead
   slave's batches are always accounted lost — completeness accounting
   stays exact, answers never go silently wrong. *)

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

let check_fault_support (spec : Fault.Spec.t) =
  if spec.Fault.Spec.drop_p > 0.0 || spec.Fault.Spec.dup_p > 0.0
     || spec.Fault.Spec.delay_p > 0.0
  then
    invalid_arg
      "Dynamic: drop/dup/delay faults are unsupported (update streams \
       require in-order, exactly-once delivery)";
  if spec.Fault.Spec.slow <> [] then
    invalid_arg
      "Dynamic: slow-node faults are unsupported (a slow slave can outlive \
       the retry timeout and replay update batches)"

let run ?faults (sc : Workload.Scenario.t) ~updates ~method_id =
  let keys, queries, ops = workload sc ~updates in
  let stats segs ~lost_updates =
    collect
      ~updates:
        (Workload.Mutation.n_updates updates ~n_queries:(Array.length queries))
      ~lost_updates segs
  in
  let ops =
    Method_c.Updates
      {
        ops;
        policy = Workload.Mutation.policy updates;
        counters =
          (fun segs ~lost_updates -> counters (stats segs ~lost_updates));
      }
  in
  if Methods.is_distributed method_id then begin
    if sc.Workload.Scenario.n_masters <> 1 then
      invalid_arg
        "Dynamic: method C requires a single master (per-slave update \
         order is defined by one staging stream)";
    Option.iter check_fault_support faults
  end;
  let o =
    Runner.drive ?faults sc ~source:Method_c.Batch ~ops ~method_id ~keys
      ~queries
  in
  ( o.Method_c.run,
    stats o.Method_c.segments ~lost_updates:o.Method_c.lost_updates )
