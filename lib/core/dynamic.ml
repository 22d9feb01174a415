open Simcore

(* Dynamic-index method drivers: the batch drivers re-run with a
   log-structured [Index.Segments] index and an interleaved update/query
   stream from [Workload.Mutation].

   - Methods A and B are replicated-index methods: one simulated node
     processes the whole stream, applying every update to its local
     delta index (and eating the cache dirtying), and the cluster
     makespan normalizes only the query work by [n_nodes] — replicated
     update work runs on every node, so it does not divide.
   - Method C forwards each update to the owning slave's partition,
     master-mediated exactly like query dispatch: updates are routed
     through the delimiter table under phase ["update_forward"], ride
     the per-slave staging buffers, and mutate that slave's in-cache
     [Segments] partition on arrival.  Partition ownership is by the
     static delimiters (forward-to-owner), so routing stays consistent
     as keys come and go.

   Validation is oracle-exact and never-silently-wrong: every returned
   rank is checked against a [Ref_impl.Dyn] sorted-array oracle replayed
   to the same point of the stream.  For Method C the per-slave oracle
   advances at master staging time — with a single master and
   non-overtaking channels, staging order equals slave processing
   order, so enqueue-time expectations are exact.

   Faulted dynamic runs support the crash / degrade / failover families
   only.  Drop, dup and delay faults reorder or replay delivery, which
   breaks the in-order update semantics (a replayed update batch would
   mutate the index twice); slow nodes can outlive the retry timeout
   and cause the same replay.  Fallback resolution is ignored: the
   master's fallback index is a static snapshot that cannot answer
   post-update queries, so a dead slave's batches are always accounted
   lost — completeness accounting stays exact, answers never go
   silently wrong. *)

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
(* Shared single-node result assembly for the replicated methods.  The
   cluster-time normalization splits the makespan: query work divides
   over the cluster, update work is replicated on every node. *)

let replicated_result (sc : Workload.Scenario.t) ~method_id ~eng ~m ~lat
    ~errors ~update_ns ~stats ~n =
  let raw = Engine.now eng in
  let nodes = sc.Workload.Scenario.n_nodes in
  let update_ns = Float.min update_ns raw in
  let total = ((raw -. update_ns) /. float_of_int nodes) +. update_ns in
  ( {
      Run_result.method_id;
      scenario = sc.Workload.Scenario.name;
      n_queries = n;
      n_nodes = nodes;
      batch_bytes = sc.Workload.Scenario.batch_bytes;
      total_ns = total;
      raw_ns = raw;
      per_key_ns = total /. float_of_int (max 1 n);
      slave_idle = 0.0;
      master_busy = 0.0;
      messages = 0;
      bytes_sent = 0;
      validation_errors = errors;
      cache = (Telemetry.rollup ~raw [ [| m |] ]).Telemetry.cache;
      overflow_flushes = 0;
      mean_response_ns = Latency.mean lat;
      p95_response_ns = Latency.percentile lat 0.95;
      metrics =
        Telemetry.snapshot ~eng ~machines:[| m |] ~latency:lat
          ~validation_errors:errors ~counters:(counters stats) ();
      trace = None;
      profile = None;
      degraded = Run_result.no_degradation;
      serving = None;
      timeline = None;
      scope = None;
    },
    stats )

(* --- Method A: one lookup at a time, updates applied in stream order. *)
let run_a (sc : Workload.Scenario.t) ~(updates : Workload.Mutation.t) ~keys
    ~queries ~ops =
  let eng = Engine.create () in
  let m = Machine.create eng ~name:"worker" sc.Workload.Scenario.params in
  let seg =
    Index.Segments.create m ~policy:(Workload.Mutation.policy updates) keys
  in
  let oracle = Index.Ref_impl.Dyn.create keys in
  let n = Array.length queries in
  let q_base = Machine.labelled_alloc m ~label:"queries" (max 1 n) in
  let r_base = Machine.labelled_alloc m ~label:"results" (max 1 n) in
  Machine.poke_array m q_base queries;
  let lat = Latency.create () in
  let errors = ref 0 in
  let update_ns = ref 0.0 in
  Machine.set_phase m "lookup";
  Engine.spawn eng ~name:"worker" (fun () ->
      Array.iteri
        (fun i op ->
          (match op with
          | Workload.Mutation.Query qi ->
              let before = Machine.busy_ns m in
              let q = Machine.read m (q_base + qi) in
              let rank = Index.Segments.search seg q in
              Machine.write m (r_base + qi) rank;
              if rank <> Index.Ref_impl.Dyn.rank oracle q then incr errors;
              Latency.add lat (Machine.busy_ns m -. before)
          | Workload.Mutation.Insert k ->
              let before = Machine.busy_ns m in
              if Index.Segments.insert seg k
                 <> Index.Ref_impl.Dyn.insert oracle k
              then incr errors;
              update_ns := !update_ns +. (Machine.busy_ns m -. before)
          | Workload.Mutation.Delete k ->
              let before = Machine.busy_ns m in
              if Index.Segments.delete seg k
                 <> Index.Ref_impl.Dyn.delete oracle k
              then incr errors;
              update_ns := !update_ns +. (Machine.busy_ns m -. before));
          if i land 8191 = 8191 then begin
            Machine.sync m;
            Machine.sample_residency m
          end)
        ops;
      Machine.sync m;
      Machine.sample_residency m);
  Engine.run eng;
  let stats =
    collect
      ~updates:(Workload.Mutation.n_updates updates ~n_queries:n)
      ~lost_updates:0 [ seg ]
  in
  replicated_result sc ~method_id:Methods.A ~eng ~m ~lat ~errors:!errors
    ~update_ns:!update_ns ~stats ~n

(* --- Method B: queries buffer up to the batch size and drain in one
   pass; updates apply immediately, dirtying the cache mid-batch.  The
   drained answers reflect every update applied before the drain, and
   the oracle is consulted at drain time, so validation stays exact. *)
let run_b (sc : Workload.Scenario.t) ~(updates : Workload.Mutation.t) ~keys
    ~queries ~ops =
  let eng = Engine.create () in
  let m = Machine.create eng ~name:"worker" sc.Workload.Scenario.params in
  let seg =
    Index.Segments.create m ~policy:(Workload.Mutation.policy updates) keys
  in
  let oracle = Index.Ref_impl.Dyn.create keys in
  let n = Array.length queries in
  let batch_keys = max 1 (Workload.Scenario.queries_per_batch sc) in
  let q_base = Machine.labelled_alloc m ~label:"queries" (max 1 n) in
  let r_base = Machine.labelled_alloc m ~label:"results" (max 1 n) in
  Machine.poke_array m q_base queries;
  let lat = Latency.create () in
  let errors = ref 0 in
  let update_ns = ref 0.0 in
  let buf = Array.make batch_keys 0 in
  let blen = ref 0 in
  Machine.set_phase m "lookup";
  let drain () =
    if !blen > 0 then begin
      Machine.sync m;
      let started = Engine.now eng in
      for j = 0 to !blen - 1 do
        let qi = buf.(j) in
        let q = Machine.read m (q_base + qi) in
        let rank = Index.Segments.search seg q in
        Machine.write m (r_base + qi) rank;
        if rank <> Index.Ref_impl.Dyn.rank oracle q then incr errors
      done;
      Machine.sync m;
      Machine.sample_residency m;
      Latency.add_many lat (Engine.now eng -. started) !blen;
      blen := 0
    end
  in
  Engine.spawn eng ~name:"worker" (fun () ->
      Array.iter
        (fun op ->
          match op with
          | Workload.Mutation.Query qi ->
              buf.(!blen) <- qi;
              incr blen;
              if !blen = batch_keys then drain ()
          | Workload.Mutation.Insert k ->
              let before = Machine.busy_ns m in
              if Index.Segments.insert seg k
                 <> Index.Ref_impl.Dyn.insert oracle k
              then incr errors;
              update_ns := !update_ns +. (Machine.busy_ns m -. before)
          | Workload.Mutation.Delete k ->
              let before = Machine.busy_ns m in
              if Index.Segments.delete seg k
                 <> Index.Ref_impl.Dyn.delete oracle k
              then incr errors;
              update_ns := !update_ns +. (Machine.busy_ns m -. before))
        ops;
      drain ();
      Machine.sync m);
  Engine.run eng;
  let stats =
    collect
      ~updates:(Workload.Mutation.n_updates updates ~n_queries:n)
      ~lost_updates:0 [ seg ]
  in
  replicated_result sc ~method_id:Methods.B ~eng ~m ~lat ~errors:!errors
    ~update_ns:!update_ns ~stats ~n

(* ------------------------------------------------------------------ *)
(* Method C: master-mediated update forwarding — the {!Method_c}
   protocol over an [Updates] op stream. *)

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

let run_c ?faults (sc : Workload.Scenario.t)
    ~(updates : Workload.Mutation.t) ~variant ~keys ~queries ~ops =
  if sc.Workload.Scenario.n_masters <> 1 then
    invalid_arg
      "Dynamic: method C requires a single master (per-slave update order \
       is defined by one staging stream)";
  Option.iter check_fault_support faults;
  let stats segs ~lost_updates =
    collect
      ~updates:
        (Workload.Mutation.n_updates updates ~n_queries:(Array.length queries))
      ~lost_updates segs
  in
  let o =
    Method_c.drive ~faults sc ~source:Method_c.Batch
      ~ops:
        (Method_c.Updates
           {
             ops;
             policy = Workload.Mutation.policy updates;
             counters =
               (fun segs ~lost_updates -> counters (stats segs ~lost_updates));
           })
      ~topology:Method_c.Flat ~variant ~keys ~queries
  in
  ( o.Method_c.run,
    stats o.Method_c.segments ~lost_updates:o.Method_c.lost_updates )

(* ------------------------------------------------------------------ *)

let run ?faults (sc : Workload.Scenario.t) ~updates ~method_id =
  let keys, queries, ops = workload sc ~updates in
  match (method_id : Methods.id) with
  | Methods.A -> run_a sc ~updates ~keys ~queries ~ops
  | Methods.B -> run_b sc ~updates ~keys ~queries ~ops
  | Methods.C1 | Methods.C2 | Methods.C3 ->
      run_c ?faults sc ~updates ~variant:method_id ~keys ~queries ~ops
