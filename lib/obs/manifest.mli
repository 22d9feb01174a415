(** Run manifests: the self-describing header of every exported
    telemetry file.

    A manifest records what produced the file — schema version, git
    revision, generator command, scenario parameters — so a `results/`
    artifact can be traced back to the exact configuration that made
    it.

    Reproducible mode: when the [SOURCE_DATE_EPOCH] environment
    variable is set (the reproducible-builds convention), the timestamp
    is taken from it and all volatile host-side fields (wall-clock
    durations, worker utilization) are suppressed, so two runs of the
    same sweep produce byte-identical files regardless of machine load
    or worker-domain count.  The CI determinism gate relies on this. *)

type t

val schema_version : int
(** Bumped whenever the exported JSON layout changes shape. *)

val create :
  ?generator:string ->
  ?host:(string * Json.t) list ->
  (string * Json.t) list ->
  t
(** [create fields] builds a manifest around caller-supplied fields
    (scenario name, seed, method list, ...).  [generator] names the
    producing command; [host] carries volatile host-side facts (sweep
    wall times, worker utilization) and is dropped entirely in
    reproducible mode. *)

val to_json : t -> Json.t
(** Field order: [schema_version], [generator], [git], [generated_at],
    caller fields in the order given, then [host] (if any). *)

val reproducible : unit -> bool
(** True iff [SOURCE_DATE_EPOCH] is set. *)

val timestamp : unit -> float
(** Seconds since the epoch — from [SOURCE_DATE_EPOCH] when set, else
    the wall clock. *)
