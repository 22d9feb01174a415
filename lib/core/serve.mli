(** Online serving drivers: open-loop query streams with SLO accounting.

    The batch drivers ({!Method_a}, {!Method_b}, {!Method_c.run}) answer the
    paper's question — how fast can each method drain a fixed query
    set — but they cannot show what a query {e experiences} under load:
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
  ?timeline:bool ->
  ?timeline_window_ns:float ->
  ?jobs:int ->
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
    only, exactly as in the batch drivers: the C family runs the one
    {!Method_c.drive} protocol under a [Serve] source, with retries,
    redispatches, fallbacks and losses noted on the timeline.  With
    [timeline] (default
    false) the run records an {!Obs.Series} onto
    [run.Run_result.timeline]: windows of [timeline_window_ns]
    (default: horizon/32) with per-window load/latency/queue/busy/SLO
    readings plus fault events pinned to their window.
    [timeline_window_ns] also moves the cold/warm split of the serving
    rollup (always at four windows), with or without [timeline].

    [?ops] (with the [?updates] spec that generated it) switches
    method A to dynamic serving over a log-structured {!Index.Segments}
    replica: every node applies every update in stream order (updates
    are replicated work) and serves its own round-robin share of the
    queries, with answers checked online against a replayed
    {!Index.Ref_impl.Dyn} oracle.  Methods B and the C family reject a
    non-empty op stream with [Invalid_argument] — their dynamic
    behaviour lives in the batch {!Dynamic} drivers.

    [jobs] (default 1) runs Methods A and B's independent node epochs
    on that many worker domains; outputs are byte-identical at any
    value because every per-node accumulator is merged in node-index
    order.  Runs with a profiler, tracer or cache microscope installed
    stay sequential (the recorders are domain-local), as does the
    Method C family (its nodes exchange messages through one engine). *)

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

(** {2 Timelines} *)

val timeline_header : string list
(** Columns of {!timeline_csv_lines}: per-window load, latency
    quantiles (log-bucket upper bounds from {!Obs.Hist}), queue depth,
    master/slave busy fractions, SLO burn-rate, degraded-mode counters
    and the [;]-joined event labels pinned to the window. *)

val timeline_csv_lines : report list -> string list
(** Header plus one row per (report, window) over every report that
    carries a timeline.  Deterministic: simulated-time data only,
    byte-identical at any [jobs] value. *)

val render_timeline : report list -> string
(** Terminal reading of each report's timeline: heat rows (shared
    ASCII intensity ramp) for offered/achieved qps, p95, queue depth
    and burn-rate, one busy row per node lane on a shared scale, the
    saturation knee when {!Obs.Series.knee} finds one, and the event
    list.  [""] when no report carries a timeline. *)
