(** Uniform entry point: run any of the five methods on a scenario. *)

val run :
  ?faults:Fault.Spec.t ->
  Workload.Scenario.t ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  Run_result.t
(** [?faults] applies to the Method C family only (A and B are
    single-node reference methods with no interconnect to degrade); the
    C family runs {!Method_c.run}, the flat batch form of the one
    {!Method_c.drive} protocol. *)

val workload :
  Workload.Scenario.t -> int array * int array
(** [workload sc] generates the scenario's (index keys, query stream)
    from its seed — split generators, so key and query randomness are
    independent.  Every method must be measured on the same workload. *)
