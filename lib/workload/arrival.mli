(** Open-loop arrival processes for the online serving mode.

    A closed batch sweep asks "how fast can the cluster drain 2^23
    queries"; serving asks "what does a query arriving at time [t]
    experience".  This module generates the arrival side of that
    question: seeded, deterministic streams of arrival timestamps over
    [clients] independent simulated client populations, decoupled from
    both method execution (the {!Serve} drivers in [lib/core]) and
    measurement (SLO accounting in [lib/obs] consumers).

    Every process is rendered/parsed through a fault-spec-style grammar
    so arrival shapes travel through CLI flags, manifests and golden
    files; {!parse} and {!to_string} round-trip exactly.

    Grammar (clauses like the [--faults] spec):
    - [poisson:rate=QPS] (shorthand [poisson:QPS]) — homogeneous
      Poisson at [rate] queries per second.
    - [mmpp:rate=QPS,burst=F,on=NS,off=NS] — two-state Markov-modulated
      Poisson: base [rate] in the quiet state, [rate *. burst] in the
      burst state, exponential sojourns with means [off]/[on]
      nanoseconds respectively (bursty web traffic).
    - [diurnal:rate=QPS,peak=F,period=NS] — non-homogeneous Poisson
      whose intensity ramps sinusoidally between [rate] and
      [rate *. peak] with the given period (a compressed day).
    - [replay:path=FILE] (shorthand [replay:FILE]) — replay arrival
      timestamps (nanoseconds, one per line, ['#'] comments allowed)
      from a trace file. *)

type process =
  | Poisson of { rate : float }  (** queries per second. *)
  | Mmpp of { rate : float; burst : float; on_ns : float; off_ns : float }
  | Diurnal of { rate : float; peak : float; period_ns : float }
  | Replay of { path : string }

type t = { process : process }

val default : t
(** [poisson:rate=1e6]. *)

val poisson : float -> t

val parse : string -> (t, string) result
(** Parse the grammar above.  Errors name the offending clause/key. *)

val to_string : t -> string
(** Canonical rendering; [parse (to_string t) = Ok t] for every [t]
    (paths round-trip verbatim, floats via an exact short format). *)

val base_rate_qps : t -> float option
(** The process's own time-average base rate ([None] for replay traces,
    whose rate is whatever the file says). *)

val scale_to : t -> offered_qps:float -> t
(** Rescale the process so its {e time-average} rate is [offered_qps]
    (the [--offered-load] override).  MMPP/diurnal keep their
    burst/peak factors and sojourn/period shape; replay traces are
    returned unchanged (their rate is the file's). *)

val generate :
  t -> seed:int -> clients:int -> duration_ns:float -> float array
(** All arrival timestamps in [[0, duration_ns)], sorted ascending —
    the superposition of [clients] independent client populations each
    carrying [1/clients] of the offered load (MMPP clients burst
    independently, which is what makes multi-client traffic smoother
    than one bursty client).  Deterministic for a given
    [(t, seed, clients, duration_ns)]: ties are broken by client id,
    then per-client sequence.  Replay ignores [clients] and truncates
    the file's timestamps at [duration_ns].

    Raises [Failure] when a replay file is missing or malformed. *)

val streams :
  t -> seed:int -> clients:int -> duration_ns:float -> float array array
(** The ascending per-client streams {!generate} merges (one for replay). *)

val merge : float array array -> float array
(** Ascending streams merged in O(n log streams), ties lower stream first. *)
