(** Per-run metrics harvesting and metrics/trace file assembly.

    Method drivers call {!snapshot} once, at end of simulation, to fold
    every layer's private counters — engine, per-node cache hierarchy,
    interconnect, response-time distribution — into one immutable
    registry snapshot stored on the {!Run_result.t}.  Snapshots are pure
    functions of the simulation, so a sweep's snapshots are
    byte-identical at any [--jobs] value.

    The [*_document] helpers assemble the [--metrics] / [--trace-json]
    output files: a metrics file is [{manifest, runs}] with the manifest
    carrying seed / scenario / method / batch / network / git-describe /
    schema-version provenance (plus host wall-time stats, suppressed when
    [SOURCE_DATE_EPOCH] is set); a trace file is Chrome [trace_event]
    JSON loadable at {{:https://ui.perfetto.dev}ui.perfetto.dev}. *)

val snapshot :
  eng:Simcore.Engine.t ->
  ?more_engines:Simcore.Engine.t list ->
  ?net:'a Netsim.Network.t ->
  machines:Machine.t array ->
  latency:Latency.t ->
  validation_errors:int ->
  ?counters:(string * float) list ->
  ?degraded:Run_result.degraded ->
  unit ->
  Obs.Metrics.Snapshot.t
(** Harvest one finished simulation into a registry snapshot: engine
    counters, every machine's [node_*]/[mem_*]/[cache_*] series, the
    network's [net_*] series (when present), the [response_ns] histogram
    and the [validation_errors] counter.  [?counters] lets a driver add
    private named counters (the dynamic drivers' [dyn_*] update
    accounting); the empty default leaves the snapshot untouched.
    [?degraded] (fault-injected runs only) adds the [failover_*]
    counters; omitting it keeps the snapshot identical to a build
    without fault support. *)

type rollup = {
  cache : Cachesim.Hierarchy.stats;
      (** Every node's hierarchy stats: summed within each group in
          node order, then the group sums added right to left. *)
  busy : float;  (** Mean busy fraction of the first group. *)
  idle : float;  (** Mean idle fraction of the last group. *)
}

val rollup : raw:float -> Machine.t array list -> rollup
(** The cluster roll-up every driver reports: [groups] lists the node
    classes, dispatchers first and servers last (Method C: masters,
    routers, slaves; a replicated method: its one class of nodes).
    Fractions are of [raw] simulated nanoseconds.  The summation order
    is fixed, so results are bit-identical run to run. *)

val run_label : Run_result.t -> string
(** Stable label identifying a run inside a metrics/trace file:
    ["<method> <scenario> batch=<n>KB"]. *)

val manifest_fields :
  ?faults:Fault.Spec.t ->
  Workload.Scenario.t ->
  methods:Methods.id list ->
  batches:int list ->
  (string * Obs.Json.t) list
(** Provenance fields for a sweep's manifest.  Worker count is omitted
    deliberately: it is host provenance (results do not depend on it), so
    it appears only in the manifest's host block and metrics files diff
    clean across [--jobs] values.  A non-empty [?faults] spec adds a
    ["faults"] field with its canonical rendering; a fault-free manifest
    is unchanged. *)

val metrics_document :
  generator:string ->
  fields:(string * Obs.Json.t) list ->
  (string * Obs.Metrics.Snapshot.t) list ->
  Obs.Json.t
(** [{manifest, runs: [{run, metrics}]}]. *)

val trace_document : (string * Simcore.Trace.t) list -> Obs.Json.t
(** Combined Chrome [trace_event] document, one process per run. *)

val timeline_document :
  generator:string ->
  fields:(string * Obs.Json.t) list ->
  (string * Obs.Series.t) list ->
  Obs.Json.t
(** [{manifest, runs: [{run, timeline}]}] — the [--timeline BASE.json]
    file: the same manifest head as a metrics file over each labelled
    run's {!Obs.Series.to_json}.  Deterministic under
    [SOURCE_DATE_EPOCH] at any worker count. *)

val cachescope_document :
  generator:string ->
  fields:(string * Obs.Json.t) list ->
  (string * Obs.Cachescope.t) list ->
  Obs.Json.t
(** [{manifest, runs: [{run, cachescope}]}] — the [--cache-scope
    BASE.json] file over each labelled run's {!Obs.Cachescope.to_json}.
    Deterministic under [SOURCE_DATE_EPOCH] at any worker count. *)

val write_json : string -> Obs.Json.t -> unit
