(** The one place a protocol core is chosen: Methods A and B run
    {!Replicated.drive}, the Method C family runs {!Method_c.drive}.
    Every batch, serving and dynamic driver reaches a core through
    {!drive}. *)

val drive :
  ?faults:Fault.Spec.t ->
  ?topology:Method_c.topology ->
  Workload.Scenario.t ->
  source:Method_c.source ->
  ops:Method_c.ops ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  Run_result.t
(** Run [method_id] once on its core, on the calling domain.  A and B
    ignore [?faults] and raise [Invalid_argument] under a [Routers]
    topology.  [?topology] defaults to [Flat]. *)

val run :
  ?faults:Fault.Spec.t ->
  ?routers:int ->
  Workload.Scenario.t ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  Run_result.t
(** {!drive} under a [Batch] source over [Queries].  A and B: one node
    drains the whole stream over a static tree, and its time is divided
    by the cluster size.  The C family uses [sc.n_nodes - sc.n_masters]
    slaves and [sc.batch_bytes] messages; every returned rank is
    validated against the reference implementation.

    [?routers] runs the C family over the [Routers] topology — the
    paper's [T > 2L] generalisation (Appendix A.2.3): node 0 is the
    master, nodes [1..routers] are routers owning near-equal contiguous
    slave groups, and the result's scenario is [sc.name ^ "+hier"].  A
    router that dies between consuming a master batch and cutting its
    sub-batches leaves queries no in-flight entry covers, so after two
    consecutive silent timeouts with an empty in-flight table the target
    resolves all outstanding queries through the master's fallback index
    (or reports them lost).  Raises [Invalid_argument] for A or B with
    routers, and for fewer than one router or a slave per router.

    [?faults] (default {!Fault.Spec.none}) applies to the C family only
    (A and B have no interconnect to degrade) and is seeded from the
    scenario seed: the network drops/duplicates/delays messages per the
    spec, crashed slaves stop serving, and the master side fails over —
    reply timeouts re-send the batch up to the spec's retry budget,
    after which the destination is declared dead and its batches are
    resolved with the master's local full-key index (or reported lost
    when the spec disables fallback).  The failover is accounted in the
    result's [degraded] field; a run never returns a silently-wrong
    rank.  Passing a spec for which [Fault.Spec.is_none] holds takes the
    exact fault-free code path (byte-identical result). *)

val workload :
  Workload.Scenario.t -> int array * int array
(** [workload sc] generates the scenario's (index keys, query stream)
    from its seed — split generators, so key and query randomness are
    independent.  Every method must be measured on the same workload. *)
