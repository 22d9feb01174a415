(** Tail-query inspector: a bounded reservoir of the K slowest queries
    of a run, each with a per-component cost breakdown of the work that
    served it.

    The mean per-key cost says how fast the average key is; the paper's second
    axis (§4.1) is response time, which is governed by the tail — the
    queries that sat longest in a batch or behind a saturated link.
    This keeps exactly the [k] slowest observations (deterministically:
    ties broken towards the earlier query id) so `repro --observe profile` can
    show *why* the worst queries were slow, not just that they were.

    The [breakdown] is supplied by the caller at [note] time — for
    batched methods it is the cost decomposition of the batch that
    carried the query (every member of a batch shares it), plus
    whatever residual component the driver adds (e.g. the time between
    dispatch and the batch reaching its slave). *)

type entry = {
  id : int;  (** Query index in the input stream. *)
  ns : float;  (** Response time. *)
  batch : int;  (** Queries sharing the carrying batch (1 = unbatched). *)
  breakdown : (string * float) list;  (** Component -> ns, unordered. *)
}

type t

val create : k:int -> t
(** [k = 0] disables the inspector ({!note} becomes a no-op). *)

val qualifies : t -> float -> bool
(** Would an observation of [ns] enter the kept set right now?  Lets
    callers skip building the breakdown for the fast majority. *)

val note :
  t -> id:int -> ns:float -> batch:int -> breakdown:(string * float) list -> unit

val worst : t -> entry list
(** Slowest first; at most [k] entries. *)

val render : t -> string
(** Aligned text, one line per entry; [""] when empty. *)

val fmt_ns : float -> string
(** [ns] as a human-readable duration ("1.85 ms"); used by {!Profile}
    too, so both renderers agree. *)
