(** Time-resolved telemetry: fixed-width simulated-time windows.

    A whole-run {!Metrics} snapshot answers "what happened"; a series
    answers "when".  The serving driver (and any other simulation that
    wants timelines) notes arrivals, deliveries, losses, busy spans and
    failover actions against a {!builder}; {!finish} freezes them into
    an array of windows, each carrying offered/achieved counts, a
    latency histogram ({!Hist}), SLO violations, the queue depth at the
    window boundary, per-lane busy time and degraded-mode counters —
    plus an instant-event lane that pins fault-plan events (crash,
    slow-node onset, retry, redispatch) to the window they fell in, so
    a latency excursion is visually attributable to its cause.

    Windows are {e simulated} time, so a series is byte-identical at
    any worker-domain count; all counters are integers or sums of
    recorded floats, so {!rebin} (coarsening by an integer factor) is
    an exact algebra in the same sense as the {!Metrics} snapshot
    algebra: counts add, histograms merge without rebinning, boundary
    gauges take the last sub-window.  (Bit-exactness of the float sums
    additionally needs grid-representable inputs — integer nanoseconds
    and power-of-two widths, which is what the property tests use.) *)

type window = {
  index : int;
  t0_ns : float;
  t1_ns : float;  (** [(index+1) * window_ns] — always a full width. *)
  offered : int;  (** Arrivals admitted in [[t0, t1)]. *)
  completed : int;  (** Deliveries in [[t0, t1)] (pinned by delivery). *)
  latency : Hist.snapshot;
      (** Response latencies of this window's deliveries. *)
  violations : int;
      (** Deliveries over the SLO budget plus queries declared lost in
          this window. *)
  lost : int;  (** Queries declared lost (never answered) here. *)
  queue_depth : int;
      (** In-system queries at [t1]: cumulative arrivals minus
          cumulative deliveries and losses. *)
  busy : (string * float) list;
      (** Per-lane busy nanoseconds inside the window, every noted lane
          present, sorted by lane name. *)
  gauges : (string * float) list;
      (** Per-lane boundary gauges ({!note_gauge}): the last value
          sampled before the window's end, carried forward ([0.] before
          the first sample); every noted lane present, sorted.  Empty
          when nothing was sampled. *)
  retries : int;  (** Failover re-sends issued in this window. *)
  redispatches : int;
  fallbacks : int;  (** Queries resolved by master-local fallback. *)
}

type event = { at_ns : float; label : string }

type t = {
  window_ns : float;
  slo_ns : float;
  budget : float;
      (** SLO violation-rate budget (fraction of arrivals allowed over
          budget) that {!burn_rate} normalizes against. *)
  windows : window array;
  events : event list;  (** Sorted by [at_ns] (stable). *)
}

(** {2 Recording} *)

type builder

val builder :
  window_ns:float -> slo_ns:float -> ?horizon_ns:float -> unit -> builder
(** [window_ns] and [slo_ns] must be positive; the series' [budget] is
    0.01.  [horizon_ns] pre-extends the series to cover the whole
    serving horizon even if its tail windows stay empty; deliveries
    after the horizon extend it further. *)

val note_arrival : builder -> at:float -> unit
val note_delivery : builder -> arrived:float -> finished:float -> unit
(** Pins one completion to [finished]'s window with latency
    [finished - arrived]; counts a violation if over [slo_ns]. *)

val note_lost : builder -> at:float -> unit
(** A query declared unanswerable at [at]: leaves the queue and counts
    as a violation in that window. *)

val note_busy : builder -> lane:string -> t0:float -> t1:float -> unit
(** Distribute a busy span over the windows it overlaps. *)

val note_gauge : builder -> lane:string -> at:float -> float -> unit
(** Sample an instantaneous reading (e.g. a partition-residency
    fraction) on a named gauge lane.  Windows report the last sample
    before their end, carried forward — a boundary gauge like
    [queue_depth], so {!rebin} takes the last sub-window. *)

val note_retry : builder -> at:float -> ?n:int -> unit -> unit
val note_redispatch : builder -> at:float -> ?n:int -> unit -> unit
val note_fallback : builder -> at:float -> ?n:int -> unit -> unit
val note_event : builder -> at:float -> label:string -> unit

val finish : builder -> t
(** Freeze.  The builder may keep being noted into and finished again;
    each call re-derives the cumulative gauges. *)

(** {2 Derived readings} *)

val offered_qps : t -> window -> float
val achieved_qps : t -> window -> float
(** Window counts re-expressed per second of window width. *)

val violation_rate : window -> float
(** [violations / (completed + lost)] — violations are pinned by
    resolution time, so the rate is per query resolved in the window;
    [0.] when none were. *)

val burn_rate : t -> window -> float
(** {!violation_rate} over [budget]: [1.0] means this window consumed
    exactly its share of the error budget, above it the budget burns
    faster than it accrues. *)

val lanes : t -> string list
(** Every lane that ever noted busy time, sorted. *)

val gauge_lanes : t -> string list
(** Every gauge lane ever sampled, sorted. *)

val knee : t -> int option
(** Saturation-onset detector: the first window [w >= 1] where the
    queue depth grew over the previous window to a material backlog
    (more than [max 2 (offered/8)]) while achieved throughput
    plateaued ([completed <= 1.05 * previous]).  [None] when the run
    never saturates. *)

(** {2 Algebra} *)

val rebin : t -> factor:int -> t
(** Coarsen by an integer [factor >= 1]: window [j] of the result
    merges source windows [[j*factor, (j+1)*factor)] — counts add,
    histograms {!Hist.merge}, per-lane busy adds, [queue_depth] takes
    the last sub-window (it is a boundary gauge).  Recording at width
    [k*w] equals rebinning a width-[w] recording by [k] (exactly, for
    grid-representable inputs — see the module header). *)

val to_json : t -> Json.t
(** Deterministic: windows in order, busy lanes sorted, events in
    time order. *)
