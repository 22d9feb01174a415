(** Online serving drivers: open-loop query streams with SLO accounting.

    The batch driver ({!Runner.run}) answers the paper's question — how
    fast can each method drain a fixed query set — but it cannot show what a query {e experiences} under load:
    a query that arrives while the engine is behind waits, and that
    queueing delay is invisible to any throughput sweep.  These drivers
    feed a seeded {!Workload.Arrival} stream through the same simulated
    engines, timestamp every query at admission, service start and
    delivery, and roll the response-time distribution up against an SLO
    budget ({!Run_result.serving}).

    What serving exposes that batch sweeps cannot: Method C funnels
    every query through its master's dispatch loop and NIC, so past the
    master's saturation point the arrival queue grows without bound and
    tail response times explode, while Methods A/B (replicated indexes,
    no interconnect) keep absorbing the same offered load — an ordering
    reversal no fixed-batch comparison can produce.

    Construction is [Spec]-only: build an {!Experiment.Spec.t} (arrival
    process, SLO budget, method set, worker count) over a
    {!Workload.Scenario.t} (client populations, serving horizon,
    offered-load override) and call {!run} or {!load_sweep}.  Runs are
    deterministic and byte-identical at any [jobs] value. *)

type report = {
  run : Run_result.t;  (** [run.serving] is always [Some serving]. *)
  serving : Run_result.serving;
}

val workload :
  ?updates:Workload.Mutation.t ->
  Workload.Scenario.t ->
  arrival:Workload.Arrival.t ->
  int array * int array * float array * Workload.Mutation.op array
(** [(keys, queries, arrivals, ops)] for a serving run: the scenario's
    index keys (identical to {!Runner.workload}'s), one uniform query
    key per arrival, the sorted admission timestamps from the arrival
    spec (rescaled by the scenario's offered-load override, generated
    over its client populations and horizon), and the interleaved
    update/query op stream ([[||]] when [?updates] is absent or
    [none]).  Drawn from independent splits of the scenario seed — the
    update stream from a dedicated split after every existing one — so
    serving runs never perturb the batch drivers' streams and dynamic
    serving never perturbs static serving. *)

val run_method :
  ?faults:Fault.Spec.t ->
  ?observe:Observe.t ->
  ?updates:Workload.Mutation.t ->
  ?ops:Workload.Mutation.op array ->
  Workload.Scenario.t ->
  arrival:Workload.Arrival.t ->
  slo_ns:float ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  arrivals:float array ->
  report
(** One open-loop serving run of one method on a prepared workload.
    [arrival] must be the same spec [workload] generated from (it is
    recorded, not re-generated).  Faults apply to the Method C family
    only, exactly as in the batch driver: {!Runner.drive} runs the C
    family's one {!Method_c.drive} protocol under a [Serve] source,
    with retries, redispatches, fallbacks and losses noted on the
    timeline.  The run
    records under [observe] (default {!Observe.none}): a [timeline]
    clause windows it onto [run.Run_result.timeline] — per-window
    load/latency/queue/busy/SLO readings plus fault events pinned to
    their window.  The serving rollup's cold/warm split is fixed at
    one eighth of the horizon.

    Methods A and B run {!Replicated.drive} under a [Serve] source.
    [?ops] (with the [?updates] spec that generated it) switches them
    to dynamic serving over a log-structured {!Index.Segments} replica:
    every node applies every update in stream order (updates are
    replicated work) and serves its own round-robin share of the
    queries, with answers checked online against a replayed
    {!Index.Ref_impl.Dyn} oracle.  The C family rejects a non-empty op
    stream with [Invalid_argument] — its dynamic behaviour lives in the
    batch {!Dynamic} drivers.

    The run uses the calling domain only; {!run} and {!load_sweep}
    spread whole runs over [Experiment.Spec.jobs] worker domains. *)

val run : Experiment.Spec.t -> report list
(** One serving run per [spec.methods] entry on a shared workload,
    fanned over [spec.jobs] worker domains; results in method order. *)

val load_sweep : Experiment.Spec.t -> loads:float list -> report list
(** [run] at each offered load (queries per second), load-major then
    method order — the saturation experiment.  Each load rescales the
    spec's arrival process via the scenario's offered-load override. *)

val render : scenario:Workload.Scenario.t -> report list -> string
(** SLO report table (one row per run). *)

val csv_lines : report list -> string list
(** {!Run_result.serving_header} plus one CSV row per report — the
    golden-file format of the [@serve-smoke] alias. *)
