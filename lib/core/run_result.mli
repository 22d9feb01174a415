(** Measured outcome of one simulated experiment run. *)

type degraded = {
  retries : int;  (** Batch re-sends after a reply timeout. *)
  redispatches : int;
      (** Batches whose destination was declared dead and whose queries
          were re-routed (resolved at the master or reported lost). *)
  lost_batches : int;
      (** Redispatched batches that could not be resolved (fallback
          disabled): their queries are counted in [lost_queries] and are
          the only queries a degraded run may leave unanswered. *)
  lost_queries : int;
  fallback_lookups : int;
      (** Queries resolved by the master's local reference lookup. *)
  dead_nodes : int list;  (** Nodes declared dead, ascending. *)
  msgs_dropped : int;  (** Injection totals, from {!Fault.Plan.stats}. *)
  msgs_duplicated : int;
  msgs_delayed : int;
  msgs_blackholed : int;
}
(** Answer-completeness accounting for a fault-injected run.  A run
    either validates every returned rank or reports the unanswered
    queries here — never silently wrong. *)

val no_degradation : degraded
(** All-zero: the invariant state of every fault-free run. *)

val is_degraded : degraded -> bool

type serving = {
  arrival : string;  (** Rendered {!Workload.Arrival} spec of the run. *)
  offered_qps : float;
      (** Measured offered load: arrivals per second of horizon. *)
  duration_ns : float;  (** Arrival horizon. *)
  arrived : int;
  completed : int;  (** [arrived] minus queries lost to faults. *)
  achieved_qps : float;
      (** Saturation throughput: completions per second of makespan
          (first arrival to last delivery).  Tracks [offered_qps] until
          the method saturates, then flatlines at its capacity. *)
  mean_queue_ns : float;
      (** Mean admission-to-service-start wait — the open-loop queueing
          delay batch sweeps cannot see. *)
  mean_ns : float;  (** Mean response (admission to delivery). *)
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;  (** Exact order-statistic response quantiles. *)
  max_ns : float;
  slo_ns : float;  (** The run's response-time budget. *)
  violations : int;
      (** Completed responses over budget, plus queries never answered
          (lost to faults): an unanswered query is an SLO violation. *)
  cold_until_ns : float;
      (** End of the cold-start phase: deliveries before this simulated
          time are "cold" (caches filling, queues draining the initial
          burst), the rest "warm": one eighth of the serving
          horizon. *)
  cold_completed : int;
  cold_p50_ns : float;
  cold_p95_ns : float;
  cold_p99_ns : float;  (** Exact quantiles over cold deliveries only. *)
  warm_completed : int;
  warm_p50_ns : float;
  warm_p95_ns : float;
  warm_p99_ns : float;
      (** Exact quantiles over warm deliveries — the steady-state
          numbers a capacity plan should use; all-zero when a phase has
          no deliveries. *)
}
(** Rollup of one online-serving run ({!Serve}): what the SLO report
    renders and the golden CSVs pin down. *)

type t = {
  method_id : Methods.id;
  scenario : string;
  n_queries : int;
  n_nodes : int;
  batch_bytes : int;
  total_ns : float;
      (** End-to-end simulated wall time of the run, after normalization
          for Methods A/B (single-node time divided by the node count, as
          the paper does for Figure 3 and Table 3). *)
  raw_ns : float;  (** Un-normalized simulated time. *)
  per_key_ns : float;  (** [total_ns / n_queries]. *)
  slave_idle : float;
      (** Mean idle fraction over the slave nodes (0 for A/B: the paper
          charges them no coordination overhead at all). *)
  master_busy : float;  (** Master CPU busy fraction (Method C only). *)
  messages : int;
  bytes_sent : int;
  validation_errors : int;
      (** Lookups whose returned rank differed from the reference
          implementation — always 0 unless something is broken. *)
  cache : Cachesim.Hierarchy.stats;  (** Aggregated over all nodes. *)
  overflow_flushes : int;  (** Buffered-method early buffer drains. *)
  mean_response_ns : float;
      (** Mean per-query response time: from the moment the query is read
          off the input stream to the moment its rank is delivered.  For
          Method A this is the individual lookup cost; for Method B the
          residence time of the query's batch; for Method C the measured
          master-to-target latency of each key.  This is the second axis
          of the paper's evaluation (§4.1): Method C reaches peak
          throughput at much smaller batches — hence much lower response
          times — than Method B. *)
  p95_response_ns : float;  (** 95th percentile of the same distribution. *)
  metrics : Obs.Metrics.Snapshot.t;
      (** Per-run telemetry registry snapshot: engine, per-node cache
          hierarchy, network and response-time series (see
          {!Telemetry.snapshot}).  Deterministic — identical for
          identical runs at any worker count. *)
  trace : Simcore.Trace.t option;
      (** Event trace of the run, under a [trace] clause of
          {!Observe}; [None] otherwise. *)
  profile : Obs.Profile.t option;
      (** Cost-attribution profile of the run, when the caller
          requested profiling (a [profile] clause of {!Observe});
          finalized against [raw_ns], so
          [Obs.Profile.conserved p = true].  Carries the tail-query
          inspector.  [None] otherwise. *)
  degraded : degraded;
      (** {!no_degradation} unless the run carried a fault plan. *)
  serving : serving option;
      (** The serving rollup for {!Serve} runs; [None] for batch
          sweeps, whose output stays byte-identical to before. *)
  timeline : Obs.Series.t option;
      (** Windowed time-resolved telemetry ({!Obs.Series}) when the
          caller asked for it (a [timeline] clause); [None] otherwise.  Built
          from simulated time only, so identical at any worker count. *)
  scope : Obs.Cachescope.t option;
      (** Cache-microscope readings (3C classification, reuse-distance
          profiles, partition residency, set pressure) when the caller
          asked for them (a [scope] clause); [None] otherwise.  Driven
          by the demand stream in simulated order, so identical at any
          worker count. *)
}

val per_key_ns : t -> float
val throughput_mqs : t -> float
(** Million lookups per simulated second. *)

val scaled_total_s : t -> queries:int -> float
(** Present the per-key cost at a different query volume — used to report
    paper-scale (2^23-key) seconds from a scaled run. *)

val completeness : t -> float
(** Fraction of queries answered (1.0 unless queries were lost). *)

val serving_header : string list
(** CSV column names matching {!serving_cells}. *)

val serving_cells : t -> serving -> string list

val header : string list
(** CSV/table column names matching {!to_cells}. *)

val to_cells : t -> string list

val degraded_header : string list
(** Extra CSV columns for fault-injected runs, matching
    {!degraded_cells}.  Kept separate from {!header} so fault-free
    output is byte-identical to a build without fault support. *)

val degraded_cells : t -> string list
