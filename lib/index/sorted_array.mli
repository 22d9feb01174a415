(** Sorted array with binary search, laid out in simulated machine memory.

    This is the slave-side structure of Method C-3 (and the master's
    delimiter table in all Method C variants).  Each probe of the binary
    search is a timed random read plus a {!Cachesim.Mem_params.t}
    [comp_cost_probe_ns] of CPU. *)

type t

val build : Machine.t -> int array -> t
(** [build m keys] pokes the strictly-increasing [keys] into freshly
    allocated memory of [m] (untimed: index construction is outside every
    measured interval in the paper). *)

val retarget : t -> Machine.t -> t
(** [retarget t m] is [t] over machine [m], which must hold [t]'s
    memory: [m] was loaded from a {!Machine.image} of the machine [t]
    was built on.  Raises [Invalid_argument] if [m] has not allocated
    the array's words. *)

val size_bytes : t -> int

val search : t -> int -> int
(** [search t q] is the rank of [q]: the number of keys [<= q].  Timed. *)

val search_untimed : t -> int -> int
(** Same result via {!Machine.peek}; no cost, no cache effects. *)
