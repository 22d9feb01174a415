(** Two-level cache hierarchy with TLB and stream prefetcher.

    This is the per-node memory system of the simulated machine.  Each
    {!access} classifies one word reference and returns its cost in
    nanoseconds:

    - TLB miss: [+ tlb_penalty_ns] (and the page is installed);
    - L1 hit: [+ l1_hit_ns] (0 by default — folded into CPU cost, as the
      paper does);
    - L1 miss, L2 hit: [+ b1_penalty_ns];
    - L2 miss classified sequential by the {!Prefetcher}:
      [+ l2_line / mem_seq_bw] (bandwidth-bound streaming, W1);
    - L2 miss classified random: [+ b2_penalty_ns] (latency-bound);
    - evicting a dirty L2 line additionally costs [l2_line / mem_seq_bw]
      (write-back traffic).

    Misses allocate in both levels (write-allocate).  The caches only track
    residency; data lives in the machine's word array. *)

type t

val create : Mem_params.t -> t
val params : t -> Mem_params.t

val access : t -> addr:int -> write:bool -> float
(** Cost in ns of referencing the word at byte address [addr].  When an
    {!Obs.Profile} was ambiently recording at {!create} time, each cost
    addend is also charged to it under [(phase, component)] — components
    [tlb_miss], [l1_hit], [l2_hit], [ram_sequential], [ram_random],
    [ram_writeback].  (Recorders are installed around a whole run,
    including hierarchy construction, so creation-time capture and
    per-access lookup see the same recorder.) *)

val access_into : t -> addr:int -> write:bool -> charge:float array -> unit
(** Fused access + charge: classify the reference exactly like {!access}
    and add its cost into [charge.(0)] and [charge.(1)] (a machine's
    pending/busy accumulator pair).  With no profiler and no scope
    attached this path performs no boxing and no allocation: probe and
    fill share one set-location computation per level, the way scans are
    unchecked ({!Cache} index-validity invariant), and all cost
    arithmetic happens through float-array loads and stores.  [charge]
    must have at least two slots.

    The path memoises the L1 line of the previous access.  An access to
    that same line counts a TLB hit and an L1 hit, sets the line's dirty
    bit on a write and adds [l1_hit_ns] without probing anything.  This
    is exact because of one invariant: between two accesses nothing but
    {!flush}, {!invalidate_range} and {!attach_scope} touches the caches
    or the TLB, and each of those clears the memo.  So the memoised line
    holds the newest LRU position in both L1 and the TLB, and since the
    prefetcher only sees L2 misses, a full probe would change nothing
    but the counters and the dirty bit. *)

val set_phase : t -> string -> unit
(** Set the attribution phase (first profile path component) for
    subsequent accesses.  Safe under process interleaving because each
    hierarchy belongs to one machine, driven by exactly one simulated
    process, and charges happen synchronously in driver code. *)

val phase : t -> string
(** Current attribution phase (initially ["mem"]). *)

val flush : t -> unit
(** Cold caches and TLB; statistics are kept. *)

val invalidate_range : t -> addr:int -> bytes:int -> unit
(** Invalidate every L1/L2 line overlapping [\[addr, addr+bytes)] —
    coherent-DMA semantics for incoming network buffers.  The TLB is
    unaffected. *)

(** {2 Cache microscope} *)

val attach_scope :
  t -> Obs.Cachescope.t -> node_name:string -> Obs.Cachescope.node
(** Register this hierarchy as one node of a {!Obs.Cachescope} and
    start feeding it the demand stream: every access classified 3C
    (per level, per phase) with its reuse distance, every fill /
    invalidation / flush reflected into per-region residency counts.
    Levels are [L1] (index 0) and [L2] (index 1); the TLB is not a data
    cache and is not scoped.  With no scope attached (the default) the
    hooks cost one [None] check per access. *)

val scope : t -> Obs.Cachescope.node option

(** {2 Statistics} *)

type stats = {
  accesses : int;
  l1_hits : int;
  l2_hits : int;  (** L1 misses that hit in L2. *)
  seq_misses : int;  (** L2 misses served at streaming bandwidth. *)
  rand_misses : int;  (** L2 misses paying the full B2 penalty. *)
  tlb_misses : int;
  writebacks : int;  (** Dirty L2 evictions. *)
  cost_ns : float;  (** Total memory-access cost charged. *)
}

val stats : t -> stats
val reset_stats : t -> unit
(** Zero the classification counters, the accumulated cost and each
    level's {!Cache} and {!Tlb} counters, so {!record_metrics} after a
    reset reports the interval since it.  Residency, LRU state and the
    prefetcher's stream table are kept, and so are the prefetcher's
    cumulative prediction counters ([prefetch_fills] / [_useful] /
    [_useless]): a prediction issued before the reset may be consumed
    after it. *)

val pp_stats : Format.formatter -> stats -> unit

val add_stats : stats -> stats -> stats
(** Pointwise sum, for aggregating over the nodes of a cluster. *)

val sub_stats : stats -> stats -> stats
(** Pointwise difference — [sub_stats after before] is the delta of an
    interval, e.g. one batch on one node. *)

val zero_stats : stats

val stats_breakdown : Mem_params.t -> stats -> (string * float) list
(** Reconstruct per-component nanoseconds from classification counts
    under [params] (same component names as the {!access} profile
    charges).  The list sums to [s.cost_ns] up to float reassociation;
    pair with {!sub_stats} to decompose an interval's memory cost. *)

val record_metrics : t -> ?labels:(string * string) list -> Obs.Metrics.t -> unit
(** Dump the classification counters into a metrics registry
    ([mem_accesses], [mem_l1_hits], [mem_l2_hits], [mem_seq_misses],
    [mem_rand_misses], [mem_tlb_misses], [mem_writebacks] and the
    accumulated [mem_cost_ns]), then each level's raw cache counters via
    {!Cache.record_metrics} and {!Tlb.record_metrics}.  Extra [labels]
    (e.g. [node=3]) are attached to every series.  Prefetcher prediction accounting is split out as
    [prefetch_fills] / [prefetch_useful] / [prefetch_useless] so demand
    hit/miss counters stay unpolluted; with a scope attached, its 3C /
    reuse-distance / cold-line readings ride along via
    {!Obs.Cachescope.record_metrics}. *)
