(** Shared Cmdliner vocabulary for the [repro] and [bench] executables.

    Each flag is a term that updates a {!Dispatch.Experiment.Spec.t};
    a subcommand's {!term} lists the flags it reads, so every other
    flag is unknown to Cmdliner and exits 124 before anything runs.
    Without its flag a field keeps its {!Dispatch.Experiment.Spec.default}
    value, unless the flag takes a default below. *)

open Cmdliner

type flag = (Dispatch.Experiment.Spec.t -> Dispatch.Experiment.Spec.t) Term.t

val term : ?always_c:bool -> flag list -> Dispatch.Experiment.Spec.t Term.t
(** [--scale] picks the scenario, then each flag updates the spec in list
    order ([update_batches] reads [--batch], so it comes after).  A usage
    error when a Method C run has no node left for a slave or fewer keys
    than slaves (checked when [spec.methods] holds a C-family method, or
    always under [~always_c:true]), or a fault names a node outside the
    cluster. *)

(** {2 Flags}  Counts must be at least 1, and [--slo], [--duration] and
    [--offered-load] positive and finite. *)

val queries : flag
val keys : flag
val nodes : flag
val masters : flag
val batch : flag
val network : flag
val seed : flag
val jobs : flag

val methods : Dispatch.Methods.id list -> flag
(** A comma-separated list, this default when absent. *)

val one_method : Dispatch.Methods.id -> flag
(** [--methods M]: one method, this default when absent. *)

val sweep_batches : flag
(** [--batches KBS], default the paper's 8 KB - 4 MB sweep. *)

val update_batches : flag
(** [--batches KBS], default the scenario's batch alone. *)

val observe : timeline:bool -> flag
(** The [metrics], [trace], [profile] and [scope] clauses, and [timeline]
    under [~timeline:true]; any other clause is a usage error. *)

val faults : flag
val arrival : flag
val slo : flag
val duration : flag
val offered_load : flag
val clients : flag
val updates : flag

(** {2 Arguments outside the spec} *)

val count : int Arg.conv
(** An int of at least 1. *)

val positive : float Arg.conv
(** A positive finite float. *)

val jobs_arg : int Term.t
(** [--jobs N], for executables that take no other workload flag. *)

val csv_arg : string option Term.t
(** [--csv FILE]: also write raw results to [FILE]. *)
