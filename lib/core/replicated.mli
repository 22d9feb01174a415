(** Methods A and B — the replicated-index baselines (Section 3,
    Section 3.1, Section A.2.1).  Every node holds the whole n-ary tree
    and answers its share of the queries locally; the two methods differ
    in one step only:
    - A answers each query by an individual tree traversal, taking a
      cache miss per uncached level;
    - B pushes a batch of queries through L2-cache-sized subtrees via
      intermediate buffers (Zhou & Ross), so each subtree is traversed
      while cache-resident.  The scenario's batch size sets how many
      queries go through the subtree pipeline at a time (Figure 3's
      x-axis).

    This module is the one implementation of that protocol.  Each call
    runs one engine: every node is a machine on it with one drain
    process, spawned in node order.  The nodes never communicate, so
    each keeps its own accumulators, which merge in node order after
    the run.  Every node starts from the same replica, and building it
    is untimed, so each call builds it once, into a {!Machine.image},
    and every node (the single batch node included) loads that image
    into its fresh machine and re-targets the replica's descriptors
    there.  The image lives for the call only.  The driver varies only along the axes of its inputs:
    - [source]: under {!Method_c.Batch}, one node (machine ["worker"])
      drains the whole stream and its time is divided by [n_nodes] —
      the paper's Figure 3 protocol, which charges the dispatcher and
      load balancing nothing and so "gives the benefit of the doubt" to
      the replicated methods.  Batch A lands its cost in the clock every
      8192 ops; a response is the query's (A) or its batch's (B)
      processing time.  Under {!Method_c.Serve}, node [i] (machine
      ["node<i>"]) is dealt every [n_nodes]th arrival from [i], admits
      each query no earlier than its arrival, and times its response
      from admission; B batches greedily, draining everything that has
      arrived by the time its batch starts.
    - [ops]: {!Method_c.Queries} runs over a static tree, validated
      after the run against {!Index.Ref_impl.ranks}.
      {!Method_c.Updates} runs over an {!Index.Segments} replica: every
      node applies every update in stream order (updates are replicated
      work), and each answer is checked online against a replayed
      {!Index.Ref_impl.Dyn} oracle.  In batch runs the replicated
      update work does not divide by [n_nodes].
    - [method_id]: one timed search per query (A), or one batch pass
      (B) — {!Index.Buffered.process_batch} over the static tree, a
      per-key drain over [Segments]. *)

val drive :
  Workload.Scenario.t ->
  source:Method_c.source ->
  ops:Method_c.ops ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  Run_result.t
(** Run A or B once over [keys] and [queries].  [Updates] counters see
    the nodes' [Segments] replicas in node order, with
    [~lost_updates:0].  The source's [series] is not read, and the
    result's [serving] field is left [None] for the serving driver to
    fill.  Raises [Invalid_argument] for the Method C family. *)
