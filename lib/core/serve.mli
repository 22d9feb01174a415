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

    This module holds the single serving run ({!run_method}), its
    workload, the SLO rollup and the renderers.  A sweep of serving
    runs is an {!Experiment.serve} grid, run by {!Experiment.run_grid}
    like every other grid of runs. *)

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

val effective : Workload.Scenario.t -> Workload.Arrival.t -> Workload.Arrival.t
(** The arrival process rescaled to the scenario's offered-load
    override, if any: what {!workload} generates from. *)

val check :
  method_id:Methods.id -> ops:Workload.Mutation.op array -> (unit, string) result
(** [Error] for a Method C family run with a non-empty op stream. *)

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
    [arrival] must be the {!effective} spec [workload] generated from
    (it is recorded, not re-generated).  Faults apply to the Method C family
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
    {!Index.Ref_impl.Dyn} oracle.  A run {!check} refuses (the C family
    with a non-empty op stream: its dynamic behaviour lives in the batch
    {!Dynamic} runs) raises [Invalid_argument].

    The run uses the calling domain only. *)

val render : scenario:Workload.Scenario.t -> report list -> string
(** SLO report table (one row per run). *)

val csv_lines : report list -> string list
(** {!Run_result.serving_header} plus one CSV row per report — the
    golden-file format of the [@serve-smoke] alias. *)
