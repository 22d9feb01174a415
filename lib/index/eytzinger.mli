(** Eytzinger (BFS) layout binary search — an extension beyond the paper.

    The sorted keys are stored in breadth-first heap order: slot 1 is the
    median, slots [2i]/[2i+1] are the children of slot [i].  A lookup
    walks [i <- 2i (+1)], so the first few probes all land in the first
    couple of cache lines instead of jumping across the array the way
    classic binary search does — the top of the implicit tree stays
    cache-resident for free.  This is the natural "what would a modern
    implementation do" upgrade for Method C-3's slave-side structure.

    To recover ranks without arithmetic on incomplete levels, each slot
    stores the pair (key, sorted-rank): the final rank read hits the same
    cache line as the last key probe.  The structure therefore occupies
    twice the bytes of the plain sorted array — the honest trade-off is
    measured by the [structures] ablation. *)

type t

val build : Machine.t -> int array -> t
(** Lay out the strictly-increasing keys in BFS pair order (untimed). *)

val size_bytes : t -> int
val levels : t -> int
(** Height of the implicit tree = worst-case probes. *)

val search : t -> int -> int
(** Timed rank lookup (same contract as {!Sorted_array.search}). *)

val search_untimed : t -> int -> int
