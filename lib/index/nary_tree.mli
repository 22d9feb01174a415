(** Sorted n-ary search tree (bulk-loaded B+-style) over simulated memory.

    This is the replicated index of Methods A and B.  Every node occupies
    exactly one L2 cache line, as the paper prescribes: [k] keys followed
    by [k] child pointers, where [2k] words fill the line (k = 4 on the
    Pentium III's 32-byte lines).  Interior keys are separators
    ([s_t] = least key under child [t+1]); descent goes to the first child
    [t] with [query < s_t].  Leaves hold [k] keys each; the rank of a query
    is recovered from the leaf's position in the (contiguous,
    breadth-first) leaf level, so leaves need no value words.

    Partially filled nodes are padded with {!Key.sentinel}, which makes the
    scan loop branch-free with respect to node occupancy.

    Note on fanout: the paper stores [n] keys {e and} [n] pointers per
    line, which yields fanout [n], not the textbook [n+1]; we follow the
    paper.  Its own Table 1/Table 4 level counts are internally
    inconsistent (see DESIGN.md §4); all level counts here are computed
    from the actual layout. *)

type t

val build : ?keys_per_node:int -> Machine.t -> int array -> t
(** [build m keys] lays the tree out in [m] (untimed pokes).  [keys] must
    be strictly increasing and non-empty.  [keys_per_node] defaults to
    half the machine's L2-line words (so one node = one line). *)

val retarget : t -> Machine.t -> t
(** [retarget t m] is [t] over machine [m], which must hold [t]'s
    memory: [m] was loaded from a {!Machine.image} of the machine [t]
    was built on.  Raises [Invalid_argument] if [m] has not allocated
    the tree's words. *)

val machine : t -> Machine.t
val levels : t -> int
(** T, counting the leaf level. *)

val keys_per_node : t -> int
val node_words : t -> int
val root_addr : t -> int
val level_base : t -> int -> int
(** [level_base t l] is the word address of the first node of level
    [l] (1 = root, [levels t] = leaves).  Nodes of a level are
    contiguous. *)

val level_nodes : t -> int -> int
val info : t -> Layout_info.t

val search : t -> int -> int
(** [search t q] = rank of [q] (number of indexed keys [<= q]).  Timed:
    one {!Cachesim.Mem_params.t} [comp_cost_node_ns] per level plus the
    memory reads of the traversal. *)

(** {2 Partial traversal — used by the buffered access technique} *)

val descend : t -> addr:int -> steps:int -> int -> int
(** [descend t ~addr ~steps q] performs [steps] timed interior descent
    steps from node [addr] and returns the reached node's address.  The
    caller must ensure the walk stays above the leaf level. *)

val leaf_rank : t -> addr:int -> int -> int
(** Timed scan of the leaf at [addr]: rank of [q]. *)

val node_index : t -> level:int -> addr:int -> int
(** Position of a node within its (contiguous) level. *)

val subtree_nodes : t -> levels:int -> int
(** Number of nodes of a complete subtree of the given height (used to
    size cache-resident subtrees: fanout^0 + ... + fanout^(levels-1)). *)
