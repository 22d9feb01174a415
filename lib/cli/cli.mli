(** Shared Cmdliner vocabulary for the [repro] and [bench] executables.

    {!spec_term} folds every workload/observation flag into one
    {!Dispatch.Experiment.Spec.t}; [--jobs] and [--csv] are also exposed
    alone, for executables that compose a narrower flag set (the bench
    harness reuses [--jobs] alone).  Both executables get unknown-flag
    rejection and [--help] from Cmdliner for free. *)

open Cmdliner

val spec_term : Dispatch.Experiment.Spec.t Term.t
(** [--scale], workload overrides ([--queries], [--keys], [--nodes],
    [--masters], [--batch], [--batches], [--network], [--seed]),
    [--jobs], [--methods], the observation session ([--observe], see
    {!Dispatch.Observe.parse} for the grammar), fault injection
    ([--faults], see {!Fault.Spec.parse}), serving knobs ([--arrival],
    [--slo], [--duration], [--offered-load], [--clients], see
    {!Workload.Arrival.parse}) and the update stream ([--updates]). *)

(** {2 Individual arguments} *)

val jobs_arg : int Term.t
(** [--jobs N], for executables that take no other workload flag. *)

val csv_arg : string option Term.t
(** [--csv FILE]: also write raw results to [FILE]. *)
