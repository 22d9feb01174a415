(** Reference implementations on plain OCaml arrays — no simulation, no
    cost model.  The simulated index structures are cross-validated against
    these, query by query, in the test suite and (optionally) inside
    experiment runs. *)

val rank : int array -> int -> int
(** [rank keys q] over a strictly increasing [keys] is the number of
    elements [<= q] — equivalently the index of the first element greater
    than [q].  Result is in [\[0, length keys\]]. *)

val ranks : int array -> int array -> int array
(** [ranks keys qs] is [Array.map (rank keys) qs], computed in bulk: a
    radix sort of [qs] and one merge over [keys].  Queries in
    [\[0, 2^30)] (every valid key) take the bulk path; any other query
    sends the whole array through {!rank}. *)

val partition_of : delimiters:int array -> int -> int
(** [partition_of ~delimiters q] maps a key to the partition whose range
    contains it: with [p] delimiters (the least key of partitions
    [1..p]), the result is in [\[0, p\]]. *)

(** Dynamic oracle: a blocked sorted array — the reference the
    log-structured {!Segments} index is cross-validated against, op for
    op.  Keys live in sorted blocks of at most {!Dyn.block_capacity}, each
    owning the key range between fence keys fixed when the oracle was last
    cut; a per-block count of the live keys before it makes [rank] one
    search over the fences plus one inside a block, and an update shifts
    one block.  A full block re-cuts the whole oracle into half-full
    blocks.  The tests check it against a [Set.Make (Int)] model. *)
module Dyn : sig
  type t

  val block_capacity : int
  (** Most keys a block holds. *)

  val create : int array -> t
  (** Copy of a strictly-increasing key array. *)

  val size : t -> int
  val rank : t -> int -> int
  (** Number of live keys [<= q]. *)

  val mem : t -> int -> bool

  val insert : t -> int -> bool
  (** Make the key live; returns whether the set changed. *)

  val delete : t -> int -> bool
  (** Remove the key; returns whether the set changed. *)

  val to_sorted_array : t -> int array
end
