(** Streaming accumulator for per-query response-time distributions.

    Tracks the exact mean plus a strided sample reservoir for percentile
    estimates, so recording stays O(1) per query over multi-million-query
    runs. *)

type t

val create : ?sample_stride:int -> unit -> t
(** Every [sample_stride]-th observation (default 16) is kept for
    percentile estimation; the mean uses all observations. *)

val add : t -> float -> unit
val add_many : t -> float -> int -> unit
(** [add_many t v k] records [k] observations of value [v] (used when a
    whole batch shares one residence time). *)

val merge_into : t -> t -> unit
(** [merge_into dst src] folds [src]'s counts, sums, histogram and
    reservoir samples into [dst].  Merging per-node accumulators in a
    fixed node order yields one canonical result. *)

val count : t -> int
val mean : t -> float
(** [0.] when empty. *)

val percentile : t -> float -> float
(** [percentile t 0.95] from the sampled reservoir; [0.] when empty. *)

val max_seen : t -> float

val histogram : t -> Obs.Hist.snapshot
(** Log2-bucketed histogram over {e all} observations (not just the
    reservoir): its exact count/sum reproduce {!count} and {!mean}, and
    its [p95] upper bound brackets {!percentile}[ t 0.95]. *)
