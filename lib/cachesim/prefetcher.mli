(** Next-line stream detector.

    Distinguishes sequential (streaming) memory traffic from random
    traffic, which is the MBRAM distinction at the core of the paper's cost
    model: a random L2 miss pays the full [B2] latency (precharge-bound),
    while a detected stream is prefetch-covered and pays only line-transfer
    time at the sequential bandwidth [W1].

    The detector keeps a small table of active streams (last line seen per
    stream).  An L2 miss on line [l] is classified sequential when some
    stream's last line is [l - 1]; otherwise it replaces the oldest stream
    entry.  A handful of entries suffices to track the interleaved
    input-buffer / output-buffer / result streams the paper's methods
    generate. *)

type t

val create : ?streams:int -> unit -> t
(** [create ~streams ()] with [streams >= 1] detectors (default 16). *)

val note_miss : t -> line:int -> bool
(** Classify a missing line; [true] means sequential.  Updates the stream
    table. *)

val reset : t -> unit

val sequential_hits : t -> int
(** Number of misses classified as sequential so far. *)

val random_misses : t -> int

(** {2 Prediction accounting}

    Observational only — classification and the cost model are
    untouched.  Every live stream at line [l] is modelled as holding
    one outstanding prefetch of line [l + 1]: extending the stream
    consumes it (useful), replacing the stream retires it unconsumed
    (useless).  Splitting these from the demand hit/miss counters keeps
    the 3C classifier and the cache accuracy statistics free of
    prefetch pollution. *)

val fills : t -> int
(** Predictions issued (one per stream allocation or extension). *)

val useful : t -> int
(** Predictions consumed by a later demand miss on the predicted
    line. *)

val useless : t -> int
(** Predictions retired unconsumed when their stream was replaced. *)
