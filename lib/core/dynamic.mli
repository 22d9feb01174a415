(** Dynamic-index method drivers: the batch methods re-run over a
    log-structured {!Index.Segments} index with an interleaved
    update/query stream from {!Workload.Mutation}.

    Methods A and B apply updates locally on the replicated node and
    eat the cache dirtying; the cluster-time normalization divides only
    the query work by [n_nodes] (replicated update work runs on every
    node).  The Method C family forwards each update to the owning
    slave's partition, master-mediated like query dispatch (phase
    ["update_forward"]), with the slave partitions held as dynamic
    [Segments] over the static delimiter ranges for every C variant —
    the {!Method_c.drive} protocol over an [Updates] op stream.

    Every returned rank is validated against a {!Index.Ref_impl.Dyn}
    oracle replayed to the same stream point — never silently wrong.
    Faulted runs (method C) support crash / degrade / failover specs
    only; drop, dup, delay and slow faults can replay update batches
    and are rejected with [Invalid_argument].  Fallback resolution is
    ignored (a master's static snapshot cannot answer post-update
    queries): a dead slave's batches are counted lost, keeping
    completeness accounting exact. *)

(** Per-run update/segment accounting, reported beside the
    {!Run_result.t} (CSV columns, [dyn_*] metrics counters). *)
type stats = {
  updates : int;  (** updates in the stream *)
  applied : int;  (** effective state flips *)
  noops : int;  (** charged no-op updates *)
  lost_updates : int;  (** updates in crash-abandoned batches (C) *)
  seals : int;
  merges : int;
  majors : int;
  segments : int;  (** sealed segments live at end of run *)
  delta_entries : int;  (** delta entries at end of run *)
}

val stats_header : string list
(** CSV column names for {!stats_cells}, [dyn.*]-prefixed. *)

val stats_cells : stats -> string list

val counters : stats -> (string * float) list
(** The stats as [dyn_*] metrics counters (what the drivers feed to
    [Telemetry.snapshot ~counters]). *)

val workload :
  Workload.Scenario.t ->
  updates:Workload.Mutation.t ->
  int array * int array * Workload.Mutation.op array
(** [(keys, queries, ops)].  Keys and queries come from the same first
    two PRNG splits as [Runner.workload] — a dynamic run indexes and
    queries exactly the static baseline's data — and the op stream from
    a dedicated third split, so existing streams are untouched. *)

val run :
  ?faults:Fault.Spec.t ->
  Workload.Scenario.t ->
  updates:Workload.Mutation.t ->
  method_id:Methods.id ->
  Run_result.t * stats
(** One dynamic batch run.  [?faults] only affects the Method C family
    (as in [Runner.run]); unsupported fault families raise. *)
