(** Hierarchical cost-attribution profiler for the simulator.

    Every simulated nanosecond a run charges — per-access cache
    outcomes, CPU compute, network latency and wire time — is also
    charged here, to a tree of path components
    ([\["lookup"; "ram_random"\]], [\["batch_xfer"; "net_bandwidth"\]],
    ...).  The first component is by convention the *phase* the
    charging machine was in; the second the *cost component* (see
    {!Cachesim.Hierarchy} and {!Netsim.Network} for the producers).

    {b Conservation.}  After {!finalize}, the attributed time — the
    canonical fold over the leaves plus a reserved ["(unattributed)"]
    residual leaf — equals the run's raw simulated time {e exactly}
    (float equality, not a tolerance).  The residual is the part of
    wall-clock the cost hooks cannot see: idle waiting minus parallel
    overlap.  It is negative when the cluster's summed busy time
    exceeds the makespan (nodes working concurrently), positive when
    the run is wait-dominated.

    Recording uses the same domain-local ambient pattern as
    {!Simcore.Trace}: instrumented layers call {!current} and charge if
    a profiler is installed, so un-profiled runs pay one thread-local
    read per hook and allocate nothing. *)

type t

val create : ?tail_k:int -> unit -> t
(** [tail_k] (default 8) bounds the embedded {!Tail} inspector. *)

val tail : t -> Tail.t
(** The run's tail-query inspector; drivers feed it directly. *)

(** {2 Ambient recording} *)

val with_recording : t -> (unit -> 'a) -> 'a
(** Install [t] as the calling domain's ambient profiler for the extent
    of the callback (exception-safe; nests by restoring the previous
    one). *)

val current : unit -> t option

(** {2 Charging} *)

val charge : t -> path:string list -> float -> unit
(** [charge t ~path ns] adds [ns] to the leaf at [path] and counts one
    event.  [path] must be non-empty and not the reserved residual
    path. *)

(** {2 Conservation} *)

val finalize : t -> total_ns:float -> unit
(** Close the books against the run's raw simulated time: solves for
    the ["(unattributed)"] residual such that
    [attributed_ns t = total_ns] exactly.  Must be called once, after
    the run. *)

val finalized : t -> bool
val residual_ns : t -> float

val attributed_ns : t -> float
(** Canonical fold over the leaves (sorted by path) plus the residual —
    the exact quantity {!conserved} compares against the total. *)

val conserved : t -> bool
(** [finalized t && attributed_ns t = total_ns] (exact float
    equality). *)

(** {2 Inspection and rendering} *)

type entry = { path : string list; ns : float; events : int }

val entries : t -> entry list
(** All leaves in canonical (path-sorted) order; the residual is not
    included. *)

val render : ?label:string -> t -> string
(** Text cost tree (descending by cost inside each level) followed by
    the tail-query inspector, if it holds anything. *)

val folded_lines : ?prefix:string -> t -> string list
(** Collapsed-stack flamegraph lines (["frame;frame <ns>"], one per
    leaf, canonical order, integer-rounded; sub-nanosecond leaves
    dropped).  [prefix] prepends a root frame (e.g. the run label);
    frames are sanitized (no spaces or semicolons).  A negative
    residual is omitted — it has no stack-sample reading. *)
