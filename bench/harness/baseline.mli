(** Benchmark baseline gate.

    Captures the simulated cost of a small deterministic sweep (the CI
    scenario, every method, three batch sizes) into a committed JSON
    file, and compares later runs against it {e bit-for-bit}: the
    simulator is deterministic, so any drift in [per_key_ns] / [raw_ns]
    / message counts — even one ULP — means a cost model changed.
    Intentional changes are promoted by re-running
    [bench --save-baseline] and committing the result; the
    [@bench-baseline] dune alias runs the check in CI. *)

open Dispatch

type entry = {
  key : string;  (** {!Telemetry.run_label} of the run. *)
  method_id : string;
  scenario : string;
  batch_bytes : int;
  per_key_ns : float;
  raw_ns : float;
  messages : int;
  bytes_sent : int;
}

type drift = {
  drift_key : string;
  field : string;
  expected : string;
  actual : string;
}

val batches : int list
(** The gated batch grid: 8 KB, 128 KB, 1 MB. *)

val default_spec : jobs:int -> Experiment.Spec.t
(** The gated sweep: {!Workload.Scenario.ci}, all five methods, over
    {!batches}. *)

val serve_spec : jobs:int -> Experiment.Spec.t
(** The gated serving cell: the CI workload renamed ["ci-serve"],
    served open-loop (Poisson 2e5 qps over a 2 ms horizon, methods A,
    B and C-3) so queueing and SLO cost models are gated alongside the
    batch sweep.  Captured by {!capture} after the fig3 cells. *)

val capture : spec:Experiment.Spec.t -> entry list
(** Run the sweep (the fig3 grid of [spec], then {!serve_spec} at the
    same worker count, then one C-3 cell per Method C protocol variant
    the grid leaves out: two routers and two masters over [spec]'s
    scenario, two masters and [drop:p=0.02+slow:node=2,factor=4] faults
    under {!serve_spec}, and dynamic forwarding at 0.1 updates/query
    across [crash:node=3,at=1e6]; then dynamic batch A and B at 0.1
    updates/query and dynamic serving of A under
    [mix:ratio=0.2,inserts=0.6]) and summarize each cell.  Raises
    [Failure] if any run reports validation errors — a broken run must
    not become a baseline. *)

val of_run : Run_result.t -> entry

val to_json : spec:Experiment.Spec.t -> entry list -> Obs.Json.t
(** [{manifest, entries}]; float fields in shortest round-tripping
    form, so saved baselines compare exactly after reload. *)

val of_json : Obs.Json.t -> (entry list, string) result
(** Parses every record of the ["entries"] list.  It is an error when
    the manifest is missing, when its [schema_version] is not
    {!Obs.Manifest.schema_version}, when ["entries"] is not a list, or
    when a record lacks a field. *)

val load : string -> (entry list, string) result
val save : path:string -> spec:Experiment.Spec.t -> entry list -> unit

val compare_entries : expected:entry list -> actual:entry list -> drift list
(** Field-exact comparison; keys present on only one side are reported
    as [(entry)] drifts.  [[]] iff the baseline holds. *)

val check : path:string -> spec:Experiment.Spec.t -> drift list
(** [compare_entries ~expected:(load path) ~actual:(capture ~spec)].
    Raises [Failure] when [path] does not load. *)

val render_drift : drift list -> string
