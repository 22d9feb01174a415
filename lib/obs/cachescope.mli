(** Cache microscope: classify what the simulated memory hierarchy
    does, not just how often it hits.

    A scope ({!t}) is created per run and installed as the ambient
    recorder ({!with_recording}), exactly like {!Profile}; every
    machine built while it is ambient registers one {!node} whose cache
    levels mirror the simulated hierarchy's geometry.  The hierarchy
    then feeds the scope its demand stream:

    - {!note_access} classifies every miss as compulsory / capacity /
      conflict (3C) against a shadow fully-associative LRU of the same
      capacity — implemented as an exact stack-distance check
      ({!Reuse}), so the same call also accumulates the reuse-distance
      histogram per address region — and tallies per-set miss counts
      (set pressure).
    - {!note_fill} / {!note_invalidate} / {!note_flush} maintain
      per-region resident-line counts, which drivers freeze with
      {!sample} at sync points to get the partition-residency series.

    Address regions ({!label_region}) attribute all of the above to
    semantic ranges — index partition, query buffer, MPI staging —
    instead of raw addresses.  Everything is simulated-time and
    insertion-ordered, so all readings are byte-identical at any
    worker-domain count; when no scope is ambient the hooks cost one
    [None] check per access. *)

type t
type node

type level_spec = {
  name : string;  (** e.g. ["L1"]. *)
  lines : int;  (** Capacity in cache lines (3C shadow-LRU size). *)
  sets : int;
  line_shift : int;  (** log2 of the line size in bytes. *)
}

val create : unit -> t

val add_node : t -> name:string -> level_spec list -> node
(** Register one machine's hierarchy; levels in probe order (L1 first). *)

val nodes : t -> node list
(** In registration order. *)

val node_name : node -> string

(** {2 Regions} *)

val label_region : node -> label:string -> lo:int -> hi:int -> unit
(** Attribute the byte range [[lo, hi)] to [label].  Ranges are
    expected to be disjoint and labelled before they are accessed;
    unlabelled addresses report as region ["other"]. *)

val regions : node -> (string * int * int) list

(** {2 Hierarchy hooks} (hot path) *)

val note_access :
  node -> level:int -> phase:string -> addr:int -> hit:bool -> unit
(** One demand access at byte address [addr] against level [level]
    (index into the [level_spec] list).  Feed each level only the
    stream it really sees: every access for L1, L1 misses for L2. *)

val note_fill : node -> level:int -> line:int -> victim:int -> unit
(** Line [line] was brought in; [victim] is the evicted line number or
    [-1] if an empty way was used. *)

val note_invalidate : node -> level:int -> line:int -> unit
(** Only call for lines actually resident. *)

val note_flush : node -> level:int -> unit

(** {2 Residency sampling} *)

val sample : node -> at:float -> unit
(** Record the current per-(level, region) residency fractions at
    simulated time [at] (drivers call this at sync points). *)

val samples : node -> (float * (string * string * float) array) list
(** Chronological [(at_ns, [(level, region, fraction)])]. *)

val residency : node -> (string * string * float) list
(** Instantaneous [(level, region, fraction)] readings. *)

(** {2 Readings} *)

val c3_table : node -> (string * (string * (int * int * int)) list) list
(** Per level: phase-sorted [(compulsory, capacity, conflict)]. *)

val c3_totals : node -> level:string -> int * int * int
(** Summed over phases.  Raises [Not_found] for an unknown level. *)

val reuse_profiles : node -> (string * string * int * Hist.snapshot) list
(** [(level, region, cold_lines, distance_hist)], levels in probe
    order, regions sorted.  The histogram holds the stack distances of
    all re-references (hits and misses); first touches are the [cold]
    count. *)

val reuse_totals : node -> (string * int * Hist.snapshot) list
(** Per level, all regions folded: [(level, cold_lines, distance_hist)]
    — the fold combines the live per-region histograms in place
    ({!Hist.merge_into}), so it stays cheap with many regions. *)

val hit_miss : node -> (string * (int * int)) list

val set_pressure : node -> (string * int array) list
(** Per level, demand misses per cache set. *)

val set_pressure_bucketed : node -> buckets:int -> (string * int array) list
(** {!set_pressure} folded into at most [buckets] ranges of consecutive
    sets — the export / heat-row resolution. *)

(** {2 Export} *)

val record_metrics : node -> ?labels:Metrics.labels -> Metrics.t -> unit
(** Emit [scope_compulsory_misses] / [scope_capacity_misses] /
    [scope_conflict_misses] (labels [level], [phase]),
    [scope_reuse_distance] histograms and [scope_cold_lines] (labels
    [level], [region]) into a registry, on top of [labels]. *)

val to_json : t -> Json.t
(** Deterministic: nodes in registration order, phases and regions
    sorted, set pressure bucketed to 64. *)

(** {2 Ambient recorder} *)

val with_recording : t -> (unit -> 'a) -> 'a
val current : unit -> t option
