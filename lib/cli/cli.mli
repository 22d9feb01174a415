(** Shared Cmdliner vocabulary for the [repro] and [bench] executables.

    {!spec_term} folds every workload/observation flag into one
    {!Dispatch.Experiment.Spec.t}; the individual [Arg]s are exposed for
    executables that compose a narrower flag set (the bench harness
    reuses [--jobs] alone).  Both executables get unknown-flag rejection and
    [--help] from Cmdliner for free. *)

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

val scale_arg : string Term.t
val queries_arg : int option Term.t
val keys_arg : int option Term.t
val nodes_arg : int option Term.t
val batch_arg : int option Term.t

(** [--batches KBS]: comma-separated batch sizes in KB, converted to
    bytes — restricts fig3's sweep grid. *)
val batches_arg : int list option Term.t
val masters_arg : int option Term.t
val network_arg : string Term.t
val seed_arg : int option Term.t
val jobs_arg : int Term.t
val methods_arg : Dispatch.Methods.id list Term.t
val csv_arg : string option Term.t

val observe_arg : Dispatch.Observe.t Term.t
(** [--observe SPEC]: the observation session, {!Dispatch.Observe.none}
    by default. *)

val faults_arg : Fault.Spec.t Term.t
val arrival_arg : Workload.Arrival.t option Term.t
val slo_arg : float option Term.t
val duration_arg : float option Term.t
val offered_load_arg : float option Term.t
val clients_arg : int option Term.t

val updates_arg : Workload.Mutation.t Term.t
(** [--updates SPEC]: interleaved update stream for the dynamic-index
    experiments — ['none'] (the default), a bare ratio shorthand, or
    [mix:ratio=..,inserts=..,segment=..,threshold=..,major=..] merge
    policy clauses (see {!Workload.Mutation.parse}). *)
