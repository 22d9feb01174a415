(** Drivers that regenerate each table and figure of the paper's
    evaluation (Section 4), plus rendering to text.

    Each driver takes a {!Spec.t} describing the whole run — scenario,
    method set, batch grid, worker-domain count — and returns structured
    results; [render_*] functions produce the terminal artefact.
    Methods A and B results are normalized by the cluster size exactly
    as in the paper.

    [fig3], [table3], [serve] and the simulating {!Ablation} studies
    declare their runs as a {!grid} of cells, which {!run_grid} checks and then
    runs on [spec.jobs] worker domains; results are collected in cell
    order, so output is byte-identical at any [jobs] value.

    Every driver takes a [Spec.t] positionally — build one with the
    [with_*] builders from {!Spec.default}; per-call knobs like
    [fig4]'s [?years] stay optional. *)

(** {2 Run specification} *)

module Spec : sig
  type t = {
    scenario : Workload.Scenario.t;
    methods : Methods.id list;  (** Method set for method-sweep drivers. *)
    batches : int list;  (** Batch-size grid (bytes) for batch sweeps. *)
    jobs : int;  (** Worker domains for sweeps; [1] = run in caller. *)
    observe : Observe.t;
        (** The observation session every run of the sweep records
            under ({!Observe.record}); {!Observe.none} by default. *)
    faults : Fault.Spec.t;
        (** Fault-injection spec applied to every Method C family run of
            the sweep (A and B have no interconnect to degrade).
            Default {!Fault.Spec.none}: the drivers take exactly the
            fault-free code paths and outputs are byte-identical to a
            spec without the field. *)
    arrival : Workload.Arrival.t;
        (** Arrival process for {!Serve} runs (ignored by batch
            sweeps).  Default [poisson:rate=1e6].  The scenario's
            offered-load override, when set, rescales it. *)
    slo_ns : float;
        (** Response-time budget for {!Serve} SLO accounting, simulated
            nanoseconds (default 1e6 = 1 ms). *)
    updates : Workload.Mutation.t;
        (** Update-stream spec for the dynamic-index runs (the
            [--updates] flag).  {!Workload.Mutation.none} (the default)
            keeps every driver on the static code paths. *)
  }

  val default : t
  (** {!Workload.Scenario.scaled}, all five methods, the paper's
      8 KB - 4 MB batch grid, [jobs = 1]. *)

  val with_scenario : Workload.Scenario.t -> t -> t
  val with_methods : Methods.id list -> t -> t
  val with_batches : int list -> t -> t

  val with_jobs : int -> t -> t
  (** Clamped to at least 1. *)

  val with_observe : Observe.t -> t -> t

  val with_profile : t -> t
  (** Adds a terminal-only [profile] clause unless one is set. *)

  val with_tail_k : int -> t -> t
  (** Sets the [profile] clause's tail size (clamped to at least 0); no
      effect without a [profile] clause. *)

  val with_faults : Fault.Spec.t -> t -> t
  val with_arrival : Workload.Arrival.t -> t -> t

  val with_slo : float -> t -> t
  (** Must be positive. *)

  val with_updates : Workload.Mutation.t -> t -> t

  val faulted : t -> bool
  (** A non-[none] fault spec is set — degraded-run columns and manifest
      fields apply. *)

  val dynamic : t -> bool
  (** A non-[none] update spec is set — drivers run the dynamic index. *)
end

(** {2 Grids of runs} *)

(** What a grid varies beyond method and batch size, named in its
    cells' labels: the network, the memory profile, the master count,
    the Zipf exponent the cell's queries were drawn with, the offered
    load (queries per second) and the update ratio. *)
type axis =
  | Net | Machine | Masters | Zipf of float | Load of float
  | Update_ratio of float

(** Where a cell's ops come from: drained as fast as the method can
    ({!Runner.drive}), or served open-loop ({!Serve.run_method}) at
    [arrivals] under [arrival] ({!Serve.effective}) and an SLO. *)
type source =
  | Batch
  | Serve of { arrival : Workload.Arrival.t; arrivals : float array; slo_ns : float }

(** What a cell's ops are: queries, or a dynamic-index stream
    ({!Dynamic.ops}) whose [Query qi] refers to [queries.(qi)]. *)
type ops =
  | Queries
  | Updates of { updates : Workload.Mutation.t; ops : Workload.Mutation.op array }

type cell = {
  method_id : Methods.id;
  scenario : Workload.Scenario.t;
  topology : Method_c.topology;
  keys : int array;
  queries : int array;
  source : source;
  ops : ops;
  axes : axis list;  (** What {!label} adds, in order. *)
}
(** One run of [method_id] over [keys] and [queries]. *)

val cell :
  ?topology:Method_c.topology ->
  ?axes:axis list ->
  Workload.Scenario.t ->
  keys:int array ->
  queries:int array ->
  Methods.id ->
  cell
(** A [Batch] cell over [Queries].  Defaults: a [Flat] topology and no
    axes. *)

val label : cell -> string
(** ["<method> <scenario> batch=<n>KB"] ({!Telemetry.run_label}'s form),
    then [routers=<r>] under a router tier, then each axis. *)

type 'a grid = {
  cells : cell list;
  collect : (cell * Run_result.t) list -> 'a;
      (** The driver's rows, from every cell's result in cell order. *)
}

val cross :
  rows:'r list ->
  cols:'c list ->
  ('r -> 'c -> cell) ->
  (('r * Run_result.t list) list -> 'a) ->
  'a grid
(** The row-major [rows x cols] grid; [collect] gets each row with its
    results in column order. *)

val run_grid :
  Spec.t -> 'a grid -> ('a * (string * Run_result.t) list, string) result
(** [Error] naming the first cell that cannot run, before any cell runs:
    one {!Serve.check}, {!Dynamic.check} (under [spec.faults]) or, for
    the C family, {!Method_c.layout} refuses; or a node of
    [spec.faults] that is a master, a router or a slave in one C-family
    cell's layout but another role in another's.  Otherwise every cell runs
    once with [spec.faults] (A and B ignore them), on [spec.jobs] worker
    domains: a [Batch] cell through {!Runner.drive} under
    {!with_run_instrumented}, a [Serve] cell through {!Serve.run_method},
    which records the session itself, [timeline] included.  Returns the
    collected rows and the labelled runs, in cell order. *)

(** {2 Table 1 — index structure setup} *)

val table1 : Spec.t -> Report.Table.t

(** {2 Table 2 — measured machine parameters} *)

val table2 : Spec.t -> Report.Table.t

(** {2 Figure 3 — search time vs batch size for all five methods} *)

type fig3_row = { batch_bytes : int; results : Run_result.t list }

val fig3 : Spec.t -> fig3_row list grid
(** Every method at every batch size on one shared workload, one row
    per batch size.  Defaults: all five methods over the paper's
    8 KB - 4 MB sweep. *)

val render_fig3 : scenario:Workload.Scenario.t -> fig3_row list -> string
(** Table plus ASCII plot.  Times are also re-expressed as seconds for
    the paper's 2^23 lookups so the y-axis is comparable to the paper's
    Figure 3 regardless of the simulated query count. *)

(** {2 Table 3 — analytical model vs simulation} *)

type table3_row = {
  method_id : Methods.id;
  predicted_ns : float;  (** Model, per key, normalized. *)
  simulated_ns : float;  (** Simulator, per key, normalized. *)
  run : Run_result.t;  (** The full simulated run behind [simulated_ns]. *)
}

val table3 : Spec.t -> table3_row list grid
(** Methods A, B and C-3 at the scenario batch size (paper: 128 KB). *)

val render_table3 : scenario:Workload.Scenario.t -> table3_row list -> string
(** Predicted and simulated times as seconds for the paper's 2^23
    lookups. *)

(** {2 Online serving} *)

val serve : loads:float list -> Spec.t -> Serve.report list grid
(** [spec.methods] served open-loop under the spec's arrival process,
    SLO and update stream: one row per offered load (queries per second,
    a {!Load} axis), or one row at the spec's own load when [loads] is
    empty.  A row's workload is generated once and shared. *)

(** {2 Figure 4 — future technology trends} *)

type fig4_row = {
  year : int;
  a_ns : float;
  b_ns : float;
  c3_ns : float;  (** C-3 with a single master node. *)
  c3_mm_ns : float;
      (** C-3 under the paper's model assumptions A.2.3(1)/(3.2 remark):
          unlimited aggregate network and replicated masters, so the
          slave side alone governs.  This is the curve whose divergence
          from B the paper's Figure 4 argues; the single-master curve
          saturates at the master NIC floor instead. *)
}

val fig4 : ?years:int -> Spec.t -> fig4_row list
(** Years 0..[years] (default 5), scaling parameters per Section 4.2. *)

val render_fig4 : fig4_row list -> string

(** {2 Timeline} *)

val timeline : ?method_id:Methods.id -> Spec.t -> string
(** Run one (query-trimmed) simulation with span tracing enabled and
    render a Gantt chart of per-node CPU busy time — the visual twin of
    the paper's slave-idle observations in §4.1. *)

val timeline_traced : ?method_id:Methods.id -> Spec.t -> string * Run_result.t
(** {!timeline}, also returning the run itself, recorded under the
    spec's session with its trace attached ([run.trace = Some _]). *)

(** {2 Per-run instrumentation} *)

val with_run_instrumented : Spec.t -> (unit -> Run_result.t) -> Run_result.t
(** [Observe.record spec.observe]: run one driver body under the spec's
    observation session. *)
