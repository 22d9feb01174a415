(** A simulated cluster node: word-addressed memory behind a simulated
    cache hierarchy, plus a local cost accumulator tied to the
    discrete-event clock.

    Data is held in 4 KiB host pages of 4-byte words (the paper's
    key/pointer width), copied on a machine's first write to them, so
    words nothing writes cost no host memory.  A word is an
    unsigned 32-bit value: every store ({!write}, {!poke},
    {!poke_array}, {!dma_write}) raises [Invalid_argument] for a value
    outside [\[0, 2^32)] and leaves memory unchanged.  Every timed {!read}/{!write} routes through the
    {!Cachesim.Hierarchy}, accumulating nanoseconds locally; processes call
    {!sync} at communication points to convert accumulated cost into
    simulated time.  This keeps the event queue out of the per-access hot
    path (tens of millions of accesses per run) while preserving the
    computation/communication interleaving the paper's methods rely on.

    Untimed {!peek}/{!poke} bypass the cache model entirely; they are for
    setup (index construction is not part of any measured interval in the
    paper) and for validation.

    Because construction is untimed, a built index is just memory: an
    {!image} holds the words, the allocation mark and the labelled
    regions of an index built once by {!build_image}, and
    {!load_image} gives any number of fresh machines that same memory
    without rebuilding it: they share its pages until they write.  A
    loaded machine's caches start cold, as a built one's do, so no
    simulated outcome can tell the two apart. *)

type t

val create :
  Simcore.Engine.t -> ?name:string -> Cachesim.Mem_params.t -> t

val name : t -> string
val params : t -> Cachesim.Mem_params.t
val hierarchy : t -> Cachesim.Hierarchy.t

(** {2 Memory allocation} *)

val alloc : t -> ?align_words:int -> int -> int
(** [alloc m n] reserves [n] words and returns the word address of the
    block.  [align_words] (default: one L2 line) rounds the base up, so
    index nodes start on line boundaries as the paper's layouts assume. *)

val words_allocated : t -> int

val owned_pages : t -> int
(** Host pages this machine has copied to write into, not counting
    pages it shares.  Diagnostic: no simulated cost depends on it. *)

val release_store : t -> unit
(** Free the host pages of a machine whose words are no longer needed.
    Its clock, counters and {!words_allocated} stay for the reports;
    until the next {!alloc}, every access raises [Invalid_argument].  A driver that keeps
    its node machines until the run's roll-up calls this once a node's
    answers are checked, so finished nodes hold no memory. *)

(** {2 Timed accesses} *)

val read : t -> int -> int
(** [read m a] returns the word at word-address [a], charging its cache
    cost to the local accumulator.  Unless an {!Obs.Profile} or
    {!Obs.Cachescope} was recording when the machine was created, it
    allocates nothing. *)

val write : t -> int -> int -> unit
(** [write m a v] stores [v] at word-address [a], charging its cache
    cost to the local accumulator.  Allocates nothing, as {!read}, but
    a page's copy on the machine's first write to it. *)

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

val peek_array : t -> int -> int -> int array
(** [peek_array m a n] is the [n] words from [a] on, read as {!peek}
    reads one, with one bounds check for the whole range.  Raises
    [Invalid_argument] if [n < 0] or the range leaves the allocated
    words. *)

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

val labelled : t -> label:string -> (unit -> 'a) -> 'a
(** [labelled t ~label build] runs [build] (typically an index
    constructor) and labels every word it allocated. *)

val labelled_alloc : t -> ?align_words:int -> label:string -> int -> int
(** {!alloc}, then attribute the allocated words to region [label] for
    reuse-distance and residency telemetry. *)

(** {2 Images}

    An image is immutable: it can be loaded into any number of machines
    with its parameters, and a write into one of them changes neither
    the image nor the others. *)

type image

val build_image : Cachesim.Mem_params.t -> (t -> 'a) -> image * 'a
(** [build_image p build] runs [build] (index constructors: {!alloc},
    {!poke}, labels) on a private machine with parameters [p] and
    returns its image (its pages, uncopied) and [build]'s result.  The private
    machine has its own engine and is seen by no ambient recorder: it
    adds no {!Obs.Cachescope} node, profile charge or trace lane.  Its
    store is released once imaged: descriptors [build] returned refer
    to a machine with no words left (any access raises), and serve only
    as shapes to re-target to a loaded machine. *)

val load_image : t -> image -> unit
(** [load_image m img] gives the empty machine [m] the image's words and
    allocation mark, then replays its labels in labelling order (so an
    ambient cache scope sees exactly the labels a build on [m] would
    have made).  [m] shares the image's pages until it writes to them.
    Raises [Invalid_argument] if [m] has allocated anything, or if
    [img] was built for other parameters. *)

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
