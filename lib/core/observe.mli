(** One observation session: which recorders a run carries, where their
    readings go, and the three operations every driver shares.

    Five recorders explain where a run's time goes: the cost profile
    ({!Obs.Profile}, with its tail-query inspector), the cache
    microscope ({!Obs.Cachescope}), the event trace ({!Simcore.Trace}),
    the serving timeline ({!Obs.Series}) and the metrics snapshot every
    run already carries.  A session {!t} says which of them to install
    and where each one's readings go; {!record} wraps one run body in
    them, {!report} renders the terminal readings of a set of runs and
    {!export} writes their files.  Each recorder keeps its own
    domain-local ambient slot, so the simulator's hot paths are
    unchanged.

    {b Grammar} (the [--observe SPEC] flag):

    {v
    SPEC   ::= "none" | CLAUSE ("+" CLAUSE)*
    CLAUSE ::= NAME (":" KEY "=" VALUE ("," KEY "=" VALUE)* )?
    v}

    - [metrics:out=F] — write a manifest-headed metrics JSON file
      ([out] required).
    - [trace:out=F] — record event traces and write them as Chrome
      [trace_event] JSON ([out] required).
    - [profile[:out=F,tail=K]] — record cost profiles and print each
      run's cost tree with its [K] slowest queries (default 8; 0
      disables the inspector); [out] also writes collapsed-stack
      flamegraph lines.
    - [timeline[:out=BASE,window=NS]] — record a windowed timeline of
      each serving run and print it as heat rows; [window] is the width
      in simulated nanoseconds (default: 1/32 of the serving horizon);
      [out] also writes [BASE.csv] and [BASE.json].
    - [scope[:out=BASE]] — run the cache microscope and print its
      report; [out] also writes [BASE.csv] and [BASE.json].

    One destination rule holds for every clause: without [out] it
    prints to the terminal only, with [out] it also writes files.
    Output paths cannot contain [+] or [,].
    Example: ["profile:tail=4+scope:out=scope+metrics:out=m.json"]. *)

type profile = {
  folded : string option;  (** Collapsed-stack output file. *)
  tail_k : int;  (** Tail-query inspector size, [>= 0]. *)
}

type timeline = {
  base : string option;  (** [BASE] of the [BASE.csv]/[BASE.json] exports. *)
  window_ns : float option;  (** [None] = 1/32 of the serving horizon. *)
}

type t = {
  metrics : string option;
  trace : string option;
  profile : profile option;
  timeline : timeline option;
  scope : string option option;
      (** [Some None]: terminal only; [Some (Some base)]: also
          [BASE.csv]/[BASE.json]. *)
}

val none : t
(** No clause: {!record} is the identity and nothing is printed. *)

val is_none : t -> bool

val default_profile : profile
(** [profile] with no output file and an 8-query tail inspector. *)

val parse : string -> (t, string) result
(** Parse the grammar above.  Rejects unknown clauses and keys,
    duplicate clauses, a key with an empty value (an empty [out=]
    would only fail once the sweep has run), [metrics]/[trace] without
    [out], [window <= 0] and [tail < 0]. *)

val to_string : t -> string
(** Canonical rendering, clauses in grammar order;
    [parse (to_string t) = Ok t]. *)

val check : honours:string list -> t -> (unit, string) result
(** [Error] naming every clause of [t] outside [honours] — a driver
    that cannot honour a clause refuses it instead of dropping it. *)

(** {2 Recording} *)

val series :
  t -> slo_ns:float -> horizon_ns:float -> Obs.Series.builder option
(** The live timeline a serving run notes losses and fault events into:
    [Some] exactly when [t] has a [timeline] clause. *)

type serving = {
  series : Obs.Series.builder;  (** From {!series}. *)
  arrivals : float array;
  done_at : float array;
      (** Delivery times, filled by the run ([< 0]: never delivered). *)
}

val record :
  ?serving:serving -> t -> (unit -> Run_result.t) -> Run_result.t
(** Run [body] with the requested recorders installed, then finalize
    them onto the result: [trace], [scope], [timeline] (busy lanes from
    the machines' spans, arrivals and deliveries replayed from
    [serving], partition residency as gauge lanes under [scope]) and
    [profile] (closed against [raw_ns]).  Two cross-recorder checks
    fail the run with [Failure]: the profile must conserve [raw_ns]
    exactly, and the timeline's completions must sum to
    [serving.completed].  A [timeline] clause without [?serving] is an
    [Invalid_argument].  Identity on {!none}. *)

(** {2 Output} *)

val report : t -> (string * Run_result.t) list -> string
(** Every terminal reading of the labelled runs: timeline heat rows,
    cost trees and cache-microscope reports, each section preceded by
    a blank line; [""] when [t] prints nothing. *)

val export :
  t ->
  generator:string ->
  fields:(string * Obs.Json.t) list ->
  (string * Run_result.t) list ->
  string list
(** Write every file [t] asks for from the labelled runs and return
    their paths: the metrics document, the combined trace, the folded
    profile lines, and the [BASE.csv]/[BASE.json] pairs of [timeline]
    and [scope].  JSON files carry a manifest of [generator] and
    [fields] (see {!Telemetry.manifest_fields}); every file is
    deterministic under [SOURCE_DATE_EPOCH] at any worker count. *)

(** {2 Timeline renderings} *)

val timeline_csv_lines : Run_result.t list -> string list
(** Header plus one row per (run, window) over every run that carries
    a timeline: per-window load, latency quantiles (log-bucket upper
    bounds from {!Obs.Hist}), queue depth, master/slave busy fractions,
    SLO burn-rate, degraded-mode counters and the [;]-joined event
    labels pinned to the window. *)

val render_timeline : Run_result.t list -> string
(** Heat rows (shared ASCII intensity ramp) for offered/achieved qps,
    p95, queue depth and burn-rate, one busy row per node lane on a
    shared scale, the saturation knee when {!Obs.Series.knee} finds
    one, and the event list; [""] when no run carries a timeline. *)
