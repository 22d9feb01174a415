(** Hierarchical distributed in-cache index — the paper's [T > 2L]
    generalisation (Appendix A.2.3, assumption 3: when one master and one
    slave cannot hold the whole search path, "each search needs to
    traverse more than the caches of two nodes and our design still can
    be applied").

    The cluster forms a two-level dispatch tree:

    {v
          queries -> master (top delimiters)
                      |  batched messages
                 routers (group delimiters)     <- tier added over Method C
                      |  re-batched messages
                  slaves (cache-resident partitions)
                      |  ranks
                   target
    v}

    The master holds one delimiter per router group; each router holds
    the delimiters of its own slaves and re-batches incoming queries per
    slave.  Every hop pays real message overhead, NIC occupancy and cache
    traffic, so the experiment quantifies what the extra tier costs at
    small scale and what it buys when the root dispatcher saturates. *)

val run :
  Workload.Scenario.t ->
  ?routers:int ->
  ?faults:Fault.Spec.t ->
  variant:Methods.id ->
  keys:int array ->
  queries:int array ->
  unit ->
  Run_result.t
(** [run sc ~routers ~variant ~keys ~queries] uses node 0 as master,
    nodes [1..routers] as routers and the remaining
    [sc.n_nodes - 1 - routers] nodes as slaves (every router gets a
    near-equal contiguous group of slaves).  [routers] defaults to 2.
    It is {!Method_c.drive} over the [Routers] topology: validation,
    accounting and [?faults] are the flat protocol's — with one
    addition: a router that dies between consuming a master batch and
    cutting its sub-batches leaves queries no in-flight entry covers,
    so after two consecutive silent timeouts with an empty in-flight
    table the target resolves all outstanding queries through the
    master's fallback index (or reports them lost).  The result's
    scenario is the input scenario's name with ["+hier"] appended. *)
