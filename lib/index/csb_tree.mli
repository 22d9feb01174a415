(** CSB+ tree (Rao & Ross, SIGMOD 2000) over simulated memory — the
    slave-side structure of Method C-1.

    Each node again fills one cache line, but only the {e first-child}
    pointer is stored; the children of a node are laid out contiguously, so
    child [t] lives at [first_child + t * node_words].  This buys a wider
    fanout from the same line: with 8 words per 32-byte line, a node holds
    7 separator keys and reaches 8 children (vs 4-and-4 for the plain
    n-ary node).

    Leaves hold [k = words_per_node - 1] keys; rank recovery uses the
    contiguous leaf level exactly as in {!Nary_tree}. *)

type t

val build : ?node_words:int -> Machine.t -> int array -> t
(** [build m keys]: [node_words] defaults to one L2 line worth of words
    (8 on the Pentium III profile).  Keys must be strictly increasing and
    non-empty. *)

val retarget : t -> Machine.t -> t
(** [retarget t m] is [t] over machine [m], which must hold [t]'s
    memory (see {!Nary_tree.retarget}).  Raises [Invalid_argument] if
    [m] has not allocated the tree's words. *)

val levels : t -> int
val keys_per_node : t -> int
(** Separators per node ([node_words - 1]). *)

val fanout : t -> int
(** Children per interior node ([keys_per_node + 1]). *)

val node_words : t -> int
val info : t -> Layout_info.t

val search : t -> int -> int
(** Timed rank lookup (see {!Nary_tree.search}). *)
