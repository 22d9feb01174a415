(** Identifiers for the five query-processing methods the paper compares.

    - {!A}: index replicated per node, one random tree traversal per query;
    - {!B}: index replicated per node, batches pushed through L2-sized
      subtrees with the Zhou-Ross buffering technique;
    - {!C1}: distributed in-cache index, slave partitions stored as CSB+
      trees;
    - {!C2}: as C1 with the buffering technique over L1-sized subtrees;
    - {!C3}: distributed in-cache index, slave partitions stored as sorted
      arrays with binary search. *)

type id = A | B | C1 | C2 | C3

val all : id list
val to_string : id -> string
(** ["A"], ["B"], ["C-1"], ["C-2"], ["C-3"]. *)

val of_string : string -> id option
(** Accepts the {!to_string} forms, case-insensitively, with or without
    the dash. *)

val is_distributed : id -> bool
(** True for the Method C family (single index distributed over the
    cluster); false for the replicated methods A and B. *)
