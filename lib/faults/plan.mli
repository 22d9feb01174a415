(** An instantiated, seeded fault plan: the per-run mutable side of a
    {!Spec}.

    A plan owns a private SplitMix stream and draws one decision per
    (active) fault kind per message, in send order.  A simulated run is
    single-domain and its send order is deterministic, so every degraded
    run is byte-identical for a given (spec, seed) at any [--jobs]
    value.  Inactive kinds ([p = 0]) consume no randomness, so adding a
    clause to a spec never perturbs the decision stream of the others.

    The network layer consults the plan per message ({!on_send},
    {!crashed}, {!wire_factor}) and reports what it actually injected
    back through the [note_*] counters; drivers fold {!stats} into
    [Run_result.degraded]. *)

type t

val create : Spec.t -> seed:int -> t
(** [seed] is the scenario seed; a [seed=N] clause in the spec
    overrides it. *)

(** {2 Per-message decisions} *)

type verdict = {
  drop : bool;
  duplicate : bool;
  extra_delay_ns : float;  (** [0.] = no delay spike. *)
}

val on_send :
  t -> src:int -> dst:int -> tag:int -> size:int -> now:float -> verdict
(** Draw the injection decisions for one message.  Consumes the plan's
    PRNG stream; call exactly once per sent message, in send order. *)

val crashed : t -> node:int -> now:float -> bool
val wire_factor : t -> src:int -> dst:int -> float
(** Wire-time multiplier for the link ([>= 1.0]). *)

val slow_factor : t -> node:int -> float
(** Compute-time multiplier for a node ([>= 1.0]). *)

(** {2 Failover policy} *)

val timeout_ns : t -> default:float -> float
val retries : t -> int
val fallback : t -> bool

(** {2 Injection accounting} *)

type stats = {
  dropped : int;  (** Messages dropped by the [drop] clause. *)
  duplicated : int;
  delayed : int;
  blackholed : int;  (** Messages lost to a crashed endpoint. *)
}

val note_dropped : t -> unit
val note_duplicated : t -> unit
val note_delayed : t -> unit
val note_blackholed : t -> unit
val stats : t -> stats
