(** Log-structured dynamic index: immutable sorted base run plus
    in-memory delta segments with inserts and tombstone deletes (after
    Asadi & Lin's incremental in-memory indexing).

    Updates append to an active log; at [seg_capacity] entries the log
    is sealed into a sorted tier-0 segment, [merge_threshold] same-tier
    segments coalesce into one segment a tier up (size-tiered policy),
    and when the delta reaches [major_fraction] of the base length the
    whole delta folds into a fresh base run (major compaction).  Only
    {e effective} updates are recorded — inserting a live key or
    deleting a dead one is a charged no-op — so per key the stored ops
    alternate, which makes {!search} an order-free signed sum over
    segments.

    All delta traffic is timed through the owning {!Machine}: probes
    under phase ["segment_probe"], seal/merge/compaction under
    ["merge"], restoring the caller's phase afterwards.  The base-run
    binary search inside {!search} stays in the caller's phase,
    mirroring the static structures' lookup accounting. *)

type policy = {
  seg_capacity : int;  (** active-log entries before a seal (>= 1) *)
  merge_threshold : int;  (** same-tier segments per merge (>= 2) *)
  major_fraction : float;
      (** delta-to-base length ratio triggering major compaction (> 0) *)
}

val default_policy : policy
(** [{seg_capacity = 64; merge_threshold = 4; major_fraction = 0.25}] *)

type stats = {
  mutable inserts : int;  (** effective inserts applied *)
  mutable deletes : int;  (** effective deletes applied *)
  mutable noops : int;  (** state-preserving updates rejected *)
  mutable seals : int;  (** active-log seals *)
  mutable merges : int;  (** size-tiered segment merges *)
  mutable majors : int;  (** major compactions *)
}

type t

val create : Machine.t -> ?policy:policy -> int array -> t
(** [create m keys] builds the base run from strictly-increasing [keys]
    (untimed, like every index constructor) and an empty delta.  The
    base is labelled ["partition"], delta memory ["delta"], for the
    cache microscope.  Raises [Invalid_argument] on unsorted keys or a
    malformed policy. *)

val machine : t -> Machine.t
val length : t -> int
(** Current number of live keys. *)

val base_length : t -> int
(** Keys in the (possibly recompacted) base run. *)

val segment_count : t -> int
(** Sealed segments currently live. *)

val delta_entries : t -> int
(** Entries across sealed segments plus the active log. *)

val stats : t -> stats
val policy : t -> policy

val insert : t -> int -> bool
(** [insert t k] makes [k] live; returns whether the index changed.
    Timed: liveness lookup and append under ["segment_probe"], any
    triggered seal/merge/compaction under ["merge"]. *)

val delete : t -> int -> bool
(** [delete t k] tombstones [k]; returns whether the index changed.
    Timing as {!insert}. *)

val search : t -> int -> int
(** [search t q] is the dynamic rank: the number of live keys [<= q].
    Timed — base-run probes in the caller's phase, delta probes under
    ["segment_probe"]. *)

val search_untimed : t -> int -> int
(** {!search} via [peek]: no cost, no cache effect (validation). *)

val live_keys : t -> int array
(** Untimed reconstruction of the sorted live key set (tests). *)
