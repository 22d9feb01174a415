(** Update-stream specification for the dynamic-index experiments: how
    many index mutations ride along a query stream, their insert/delete
    mix, and the log-structured merge policy the dynamic index runs
    under.

    Grammar (the [--updates] flag; clause style shared with
    [Fault.Spec] and {!Arrival}):

    {v
    none                       no updates (the default; static runs)
    0.2                        bare ratio shorthand
    mix:ratio=0.2,inserts=0.5,segment=64,threshold=4,major=0.25
    v}

    [ratio] is updates per query (>= 0); [inserts] the fraction of
    updates that are inserts (rest are deletes); [segment], [threshold]
    and [major] are {!Index.Segments.policy}'s [seg_capacity],
    [merge_threshold] and [major_fraction].  [parse] and [to_string]
    round-trip exactly. *)

type t = {
  ratio : float;
  insert_frac : float;
  seg_capacity : int;
  merge_threshold : int;
  major_fraction : float;
}

val none : t
(** Zero updates, default merge policy. *)

val is_none : t -> bool
(** True when the ratio is zero — the run is static. *)

val parse : string -> (t, string) result
val to_string : t -> string
(** Canonical rendering; [parse (to_string t) = Ok t] exactly. *)

val policy : t -> Index.Segments.policy
(** The merge-policy knobs as an [Index.Segments] policy. *)

(** One slot of an interleaved update/query stream.  [Query i] refers
    to the [i]th query of the underlying query array. *)
type op = Query of int | Insert of int | Delete of int

val n_updates : t -> n_queries:int -> int
(** [floor (ratio * n_queries)]. *)

val plan : t -> Prng.Splitmix.t -> n_queries:int -> op array
(** Deterministic interleaved stream: [n_queries] queries in order with
    [n_updates] mutations spread uniformly among them, all draws from
    the given generator (callers pass a dedicated split so existing
    streams are untouched).  Update keys are uniform over the key
    domain, so no-op collisions are part of the workload. *)
