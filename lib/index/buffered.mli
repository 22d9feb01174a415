(** Buffering access technique of Zhou & Ross (VLDB 2003) over an
    {!Nary_tree} — the batch engine of Method B (L2-sized subtrees) and
    Method C-2 (L1-sized subtrees).

    The tree's levels are partitioned into groups such that a complete
    subtree spanning one group fits in the designated cache budget.  A
    batch of queries is pushed through group by group: a query descends
    the levels of the current group and is appended to the buffer of the
    subtree root it reaches; once all queries of a subtree are buffered,
    that subtree is processed in turn, so its nodes are touched by many
    queries while cache-resident.  At the leaf level the rank is written
    to the result slot of the originating query.

    Buffer entries are (key, query-index) word pairs — one word more per
    entry than the paper, which stores the result over the search key; the
    index is what lets results land back in request order.  Buffers have
    bounded capacity; an overflowing buffer is drained in place (flushed
    through its subtree immediately), so skewed batches degrade gracefully
    instead of failing.

    All buffer and tree traffic is timed through the owning machine. *)

type t

val create :
  ?budget_bytes:int -> ?max_batch:int -> Nary_tree.t -> t
(** [create tree ~budget_bytes ~max_batch] plans the level grouping for
    the given cache budget (default: half the machine's L2) and allocates
    buffers sized for batches of up to [max_batch] queries (default
    65536). *)

val retarget : t -> Machine.t -> t
(** [retarget t m] is [t] (its tree included, see
    {!Nary_tree.retarget}) over machine [m], loaded from an image of the
    machine [t] was built on, with empty buffers and no flushes. *)

val tree : t -> Nary_tree.t
val groups : t -> int
(** Number of level groups ([>= 1]). *)

val group_levels : t -> int array
(** Levels spanned by each group, top first; sums to [Nary_tree.levels]. *)

val buffer_bytes : t -> int
(** Memory footprint of the buffers. *)

val overflow_flushes : t -> int
(** Times a buffer overflowed and was drained early (diagnostic). *)

val process_batch : t -> queries:int -> results:int -> n:int -> unit
(** [process_batch t ~queries ~results ~n] reads [n] query keys from the
    machine words at [queries..queries+n-1] and writes the rank of query
    [i] to word [results + i].  [queries] and [results] may alias (the
    paper overwrites keys with results).  Timed. *)
