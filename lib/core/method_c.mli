(** Method C — the paper's contribution: a single index {e distributed
    over the CPU caches} of the cluster (Sections 2 and 3.2).

    One master node owns a small sorted array of partition delimiters;
    each slave holds one cache-sized partition of the sorted key set.
    Queries stream into the master, which routes each key to the owning
    slave's outgoing batch buffer; full buffers are shipped as one
    message.  Slaves process each incoming batch against their resident
    partition and ship the ranks to the target.  Master dispatch, slave
    lookups, network transfer and the resulting cache pollution all run
    concurrently in the discrete-event simulation, so slave idle time and
    the 128 KB cache-contention dip are emergent, not assumed.

    The sub-methods differ only in the slave-side structure:
    C-1 = CSB+ tree, C-2 = n-ary tree walked with the buffering technique
    over L1-sized subtrees, C-3 = sorted array with binary search.

    This module is the one implementation of that protocol.  Every
    Method C driver reaches {!drive} through {!Runner.drive} — batch and
    the router tier ({!Runner.run}), open-loop serving ({!Serve}) and
    update forwarding ({!Dynamic}) — and they differ only along three
    axes:
    - {!source}: where the ops come from and how a response is timed;
    - {!ops}: queries only, or an interleaved query/insert/delete stream;
    - {!topology}: masters feeding slaves directly, or through routers.

    {!source}, {!ops} and {!outcome} are shared with
    {!Replicated.drive}, the one core for Methods A and B.

    Multiple masters (the paper's §3.2 remedy for master overload) are
    supported via [Scenario.n_masters] in the flat query topology: nodes
    [0 .. n_masters-1] each run a replica of the delimiter table over a
    share of the query stream, and slaves serve batches from all masters
    in arrival order, replying to the originating master's node. *)

type source =
  | Batch
      (** Each master drains a contiguous chunk of the stream as fast as
          it can read; a response is timed from the master's read of the
          query.  The master syncs and samples cache residency every 8192
          ops. *)
  | Serve of {
      arrivals : float array;  (** Admission time of each query. *)
      start_at : float array;  (** Written: service start per query. *)
      done_at : float array;  (** Written: delivery time per query. *)
      series : Obs.Series.builder option;
          (** Timeline to note retries, redispatches, fallbacks and
              losses on. *)
    }
      (** Open-loop serving: arrivals are dealt round-robin over the
          masters, each query is admitted no earlier than its arrival
          (with every partial buffer flushed before the master idles),
          and a response is timed from admission.  Residency is sampled
          every 64th query id. *)

type ops =
  | Queries
  | Updates of {
      ops : Workload.Mutation.op array;
          (** Interleaved stream; [Query qi] refers to [queries.(qi)]. *)
      policy : Index.Segments.policy;  (** Slave partitions' merge policy. *)
      counters :
        Index.Segments.t list -> lost_updates:int -> (string * float) list;
          (** Metrics counters to record for the finished run. *)
    }
      (** Update forwarding: updates are routed through the delimiter
          table under phase ["update_forward"], ride the staging buffers
          as {!Proto} op words and mutate the owning slave's
          {!Index.Segments} partition on arrival.  Expected ranks come
          from per-slave {!Index.Ref_impl.Dyn} oracles advanced at
          staging time.  Requires a single master and a flat topology;
          there is no fallback (a dead slave's batches, with their
          updates, are lost), and the target drains until its master's
          end-of-stream marker has arrived and nothing is in flight. *)

type topology =
  | Flat
  | Routers of int
      (** A two-tier tree: node 0 is the master, the next [r] nodes are
          routers owning near-equal contiguous slave groups, and every
          slave replies to node 0.  The failover timeout covers two
          hops, and a target that hears nothing for two timeouts with
          nothing in flight resolves the queries a dead router
          stranded. *)

type outcome = {
  run : Run_result.t;
  segments : Index.Segments.t list;  (** Slave partitions under [Updates]. *)
  lost_updates : int;  (** Updates in batches abandoned by failover. *)
}

val layout :
  Workload.Scenario.t ->
  ops:ops ->
  topology:topology ->
  (int * int * int, string) result
(** [(masters, routers, slaves)] of the node layout {!drive} builds for
    the scenario, or why the scenario cannot hold it: a router tier
    under [Updates], fewer than one master, or fewer slaves than
    [max 1 routers].  Lets a driver refuse an infeasible grid before
    anything runs. *)

val drive :
  faults:Fault.Spec.t option ->
  Workload.Scenario.t ->
  source:source ->
  ops:ops ->
  topology:topology ->
  variant:Methods.id ->
  keys:int array ->
  queries:int array ->
  outcome
(** Run the protocol once.  Raises [Invalid_argument] for variants
    [A]/[B], and wherever {!layout} returns [Error].  The result's
    [serving] field is left [None] for the serving driver to fill. *)
