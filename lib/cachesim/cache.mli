(** A single set-associative cache level with LRU replacement.

    Addresses are byte addresses; a cache tracks which lines are resident
    and their dirty bits, and counts hits / misses / evictions /
    write-backs.  The cache stores no data — the simulated machine keeps
    the actual words — it only models residency and cost-relevant events.

    Each set is kept in recency order, most recent line first, as one
    word per way (line number and dirty bit); a hit or fill moves its
    line to the front and a fill evicts the last way.  There are no LRU
    stamps and no victim scan.

    A cache with [sets = 1] is fully associative, but a probe scans every
    way of its set, so a highly associative cache is slow to probe; the
    TLB is the fully associative {!Tlb} instead, which gives the same
    outcomes in O(1). *)

type t

val create :
  ?name:string -> size_bytes:int -> line_bytes:int -> ways:int -> unit -> t
(** [create ~size_bytes ~line_bytes ~ways ()] builds a cache of
    [size_bytes / line_bytes] lines grouped into
    [size / (line * ways)] sets.  [size_bytes] must be a multiple of
    [line_bytes * ways], and [line_bytes] and the set count must be powers
    of two.  *)

val name : t -> string
val line_bytes : t -> int
val ways : t -> int
val sets : t -> int
val lines : t -> int
(** Total number of lines ([size / line]). *)

val line_of_addr : t -> int -> int
(** Line number containing a byte address. *)

val probe : t -> addr:int -> write:bool -> bool
(** [probe t ~addr ~write] probes the set for [addr]: on a hit, refreshes
    LRU state (and the dirty bit if [write]) and returns [true]; on a miss
    returns [false] {e without} allocating.  Either way the probed line's
    set location is cached in [t], so a following {!fill_probed} does not
    recompute it. *)

val fill_probed : t -> write:bool -> bool
(** Allocate the line located by the most recent {!probe} (or {!fill}),
    evicting the set's LRU line if needed.  Returns [true] when the
    eviction wrote back a dirty line.  Only meaningful directly after a
    missing probe of the same cache — the fused miss path of
    {!Hierarchy.access}. *)

val rehit : t -> write:bool -> unit
(** Count a hit on the line most recently hit or filled, setting its
    dirty bit if [write].  This is exactly what {!probe} does for an
    address in that line, provided no other line was hit or filled
    since and the line was not invalidated or flushed: it then sits at
    the front of its set, so recency order is left as it is.  The
    repeat-line path of {!Hierarchy.access_into}. *)

val probed_line : t -> int
(** Line number cached by the most recent {!probe} / {!fill} ([-1]
    before the first). *)

val access : t -> addr:int -> write:bool -> bool
(** Alias for {!probe} — the historical probe entry point. *)

val fill : t -> addr:int -> write:bool -> bool
(** Allocate the line containing [addr], evicting the set's LRU line if
    needed.  Returns [true] when the eviction wrote back a dirty line.
    Thin wrapper over {!fill_probed} that computes the set location
    itself. *)

val last_victim : t -> int
(** Line number evicted by the most recent {!fill}, or [-1] if it used
    an empty way ([-1] before the first fill) — how the residency
    telemetry learns which line a fill displaced. *)

val resident : t -> addr:int -> bool
(** Residency check without touching LRU state or statistics. *)

val invalidate : t -> addr:int -> unit
(** Drop the line containing [addr] if resident (models coherent DMA:
    the NIC writing to memory invalidates stale cached copies).  A dirty
    line is discarded without write-back — the DMA data supersedes it. *)

val flush : t -> unit
(** Invalidate every line (statistics are kept). *)

(** {2 Statistics} *)

type stats = { hits : int; misses : int; evictions : int; writebacks : int }

val stats : t -> stats
val reset_stats : t -> unit

val record_metrics : t -> ?labels:(string * string) list -> Obs.Metrics.t -> unit
(** Dump hit/miss/eviction/write-back counters into a metrics registry as
    [cache_hits], [cache_misses], [cache_evictions], [cache_writebacks],
    labelled with [level=<cache name>] plus any extra [labels]. *)
