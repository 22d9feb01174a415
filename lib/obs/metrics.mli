(** Labeled metrics registry: counters, gauges and log-bucketed
    histograms, identified by a name plus a canonically-sorted label
    set.

    A registry is the mutable collection side; a {!Snapshot.t} is the
    immutable, deterministically-ordered view used for export.
    Simulation code creates one registry {e per run} (so parallel sweeps
    never share one — runs are reported in key order, which keeps every
    exported file byte-identical at any worker-domain count) and the
    instrumented layers each contribute their counters through
    [record_metrics]-style hooks.

    A registry is single-domain mutable state: a run is always one
    domain, so registries never combine across domains. *)

type t

type labels = (string * string) list
(** Label pairs; stored sorted by key, so equal label sets are equal
    lists regardless of the order the caller supplied. *)

val create : unit -> t

val incr : t -> ?labels:labels -> string -> int -> unit
(** Add to a counter (creating it at zero).  Counters are monotone by
    convention; negative increments are not rejected. *)

val incr_f : t -> ?labels:labels -> string -> float -> unit
(** Float counter increment (e.g. accumulated nanoseconds). *)

val gauge : t -> ?labels:labels -> string -> float -> unit
(** Set a gauge (last write wins). *)

val observe : t -> ?labels:labels -> string -> float -> unit
(** Record one histogram observation. *)

val observe_hist : t -> ?labels:labels -> string -> Hist.snapshot -> unit
(** Merge a pre-built histogram into the named histogram — used to
    import a distribution accumulated elsewhere (e.g. per-query
    response times) without replaying every observation. *)

module Snapshot : sig
  type value =
    | Counter of float
    | Gauge of float
    | Histogram of Hist.snapshot

  type entry = { name : string; labels : labels; value : value }

  type t = entry list
  (** Sorted by [(name, labels)]; keys are unique. *)

  val find : t -> ?labels:labels -> string -> value option

  val to_json : t -> Json.t
  (** A JSON array of [{name, labels, type, ...}] objects, in snapshot
      order. *)

  val of_json : Json.t -> (t, string) result
  (** Inverse of {!to_json} (used by tests and external tooling). *)

  val render : t -> string
  (** Aligned [name{k=v}  value] text, one metric per line; histograms
      render as [count/mean/p50/p95/p99/max]. *)
end

val snapshot : t -> Snapshot.t
