(** Log-bucketed histogram: power-of-two buckets, O(1) observation.

    A value [v > 0] lands in the bucket whose upper bound is the
    smallest power of two [>= v] ([2^e] with [v] in [(2^(e-1), 2^e]]);
    zero and negative values share a dedicated bottom bucket.  This
    gives ~60 buckets across the full double range, enough resolution
    for order-of-magnitude latency distributions while keeping merge
    exact (bucket counts just add — no rebinning).

    The exact running [sum], [count], [min] and [max] are tracked next
    to the buckets, so a mean computed from a histogram equals the mean
    of the raw stream: the registry and any summary statistic derived
    from it see the very same data. *)

type t

(** Immutable snapshot: what {!Metrics} stores and exports. *)
type snapshot = {
  count : int;
  sum : float;
  min_v : float;  (** [infinity] when empty. *)
  max_v : float;  (** [neg_infinity] when empty. *)
  buckets : (int * int) list;
      (** [(exponent, count)], sorted by exponent; the bucket covers
          [(2^(e-1), 2^e]].  Exponent [min_int] is the [<= 0] bucket. *)
}

val create : unit -> t
val observe : t -> float -> unit
val observe_n : t -> float -> int -> unit
(** [observe_n t v k] records [k] observations of value [v]. *)

val snapshot : t -> snapshot

val add_snapshot : t -> snapshot -> unit
(** Merge a snapshot into a live histogram (exact: counts, sum, min and
    max all combine without rebinning). *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src] into [dst] in place without
    materialising either side as a snapshot — the allocation-free
    counterpart of [add_snapshot dst (snapshot src)], for folds that
    combine many live histograms (e.g. per-window reuse-distance
    profiles over a long serve run).  [src] is left untouched; [dst]
    and [src] must not be the same histogram. *)

val empty : snapshot
val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum; [min]/[max] combine accordingly. *)

val mean : snapshot -> float
(** [0.] when empty. *)

val quantile : snapshot -> float -> float
(** [quantile s q] for [q] in [0,1]: upper bound of the bucket holding
    the [q]-th observation — an estimate no finer than the bucket width.
    [0.] when empty. *)

val quantiles : snapshot -> float * float * float
(** [(p50, p95, p99)] via {!quantile} — the trio the text rendering
    shows.  All [0.] when empty: an empty histogram is pinned to zero
    quantiles, never [max_v] ([neg_infinity]) leaking out of the bucket
    walk. *)

val quantiles_opt : snapshot -> (float * float * float) option
(** {!quantiles}, distinguishing "no observations" ([None]) from a
    stream whose quantiles are genuinely zero. *)

val bucket_of : float -> int
(** Bucket exponent for a value: [e] with [v] in [(2^(e-1), 2^e]];
    [min_int] for [v <= 0]. *)

val bucket_upper : int -> float
(** Upper bound of bucket [e] ([2^e]; [0.] for the bottom bucket). *)
