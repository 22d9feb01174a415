(** A simulated cluster node: word-addressed memory behind a simulated
    cache hierarchy, plus a local cost accumulator tied to the
    discrete-event clock.

    Data is held in a flat, growable array of 4-byte words (the paper's
    key/pointer width).  Every timed {!read}/{!write} routes through the
    {!Cachesim.Hierarchy}, accumulating nanoseconds locally; processes call
    {!sync} at communication points to convert accumulated cost into
    simulated time.  This keeps the event queue out of the per-access hot
    path (tens of millions of accesses per run) while preserving the
    computation/communication interleaving the paper's methods rely on.

    Untimed {!peek}/{!poke} bypass the cache model entirely; they are for
    setup (index construction is not part of any measured interval in the
    paper) and for validation. *)

type t

val create :
  Simcore.Engine.t -> ?name:string -> Cachesim.Mem_params.t -> t

val engine : t -> Simcore.Engine.t
val name : t -> string
val params : t -> Cachesim.Mem_params.t
val hierarchy : t -> Cachesim.Hierarchy.t

(** {2 Memory allocation} *)

val alloc : t -> ?align_words:int -> int -> int
(** [alloc m n] reserves [n] words and returns the word address of the
    block.  [align_words] (default: one L2 line) rounds the base up, so
    index nodes start on line boundaries as the paper's layouts assume. *)

val words_allocated : t -> int

(** {2 Timed accesses} *)

val read : t -> int -> int
(** [read m a] returns the word at word-address [a], charging its cache
    cost to the local accumulator. *)

val write : t -> int -> int -> unit

val compute : t -> float -> unit
(** [compute m ns] charges [ns] of pure CPU time (key comparisons,
    dispatch logic).  Attributed to the ambient {!Obs.Profile} (if any)
    as [(phase, "cpu")]. *)

val set_phase : t -> string -> unit
(** Set the cost-attribution phase for this node's subsequent memory
    and CPU charges (forwards to {!Cachesim.Hierarchy.set_phase}).
    Phase is per-machine state, not ambient: each machine is driven by
    exactly one simulated process and all charges are synchronous, so a
    process suspending inside {!sync} cannot corrupt another node's
    phase. *)

val phase : t -> string

val sync : t -> unit
(** Advance the simulation clock by the accumulated local cost.  Must be
    called from inside a simulated process. *)

val pending_ns : t -> float
(** Cost accumulated since the last {!sync}. *)

val busy_ns : t -> float
(** Total cost ever charged (memory + compute), synced or not.  Used for
    idle-fraction accounting: idle = 1 - busy / elapsed. *)

(** {2 Untimed accesses} *)

val peek : t -> int -> int
(** Read a word with no cache effect and no cost. *)

val poke : t -> int -> int -> unit
(** Write a word with no cache effect and no cost (setup only). *)

val poke_array : t -> int -> int array -> unit
(** Bulk {!poke} of consecutive words. *)

val dma_write : t -> int -> int array -> unit
(** [dma_write m a data] models a NIC depositing an incoming message at
    word address [a]: the words are stored (untimed — transfer time is the
    network simulator's business) and any stale cache lines covering the
    region are invalidated, so the consumer's subsequent timed reads miss,
    exactly as on coherent-DMA hardware.  This is the source of Method C's
    cache-pollution effect around 128 KB batches (paper §4.1). *)

val flush_caches : t -> unit
(** Cold-start the node's caches and TLB. *)

(** {2 Cache microscope}

    All three are no-ops (no allocation, one option match) unless the
    machine was created while an {!Obs.Cachescope} was ambiently
    recording — in that case {!create} registered this node's
    hierarchy with it. *)

val label_region : t -> label:string -> base:int -> words:int -> unit
(** Attribute the word range [[base, base+words)] to a semantic region
    ("partition", "queries", "mpi_staging", ...) for reuse-distance and
    residency telemetry.  Label a range before accessing it. *)

val labelled : t -> label:string -> (unit -> 'a) -> 'a
(** [labelled t ~label build] runs [build] (typically an index
    constructor) and labels every word it allocated. *)

val labelled_alloc : t -> ?align_words:int -> label:string -> int -> int
(** {!alloc} + {!label_region} in one step. *)

val sample_residency : t -> unit
(** Freeze the current per-(level, region) residency fractions at the
    engine's current simulated time.  Drivers call this at sync points,
    so the sample times — and therefore the exported series — are
    byte-identical at any worker-domain count. *)

val record_metrics : t -> Obs.Metrics.t -> unit
(** Dump the node's accounting into a metrics registry — [node_busy_ns]
    (counter), [node_words_allocated] (gauge) and the full cache-hierarchy
    breakdown via {!Cachesim.Hierarchy.record_metrics} — every series
    labelled [node=<name>]. *)
