(** Declarative fault-injection specifications.

    A spec is a pure description of which faults a run should suffer —
    message drop/duplication/delay probabilities, per-link degradation,
    node crashes and slow nodes at simulated timestamps — plus the
    failover policy knobs (timeout, retry budget, fallback).  It carries
    no state: instantiate a {!Plan} per run to get the seeded,
    reproducible decision stream.

    {b Grammar} (the [--faults SPEC] flag):

    {v
    SPEC   ::= "none" | CLAUSE ("+" CLAUSE)*
    CLAUSE ::= NAME (":" KV ("," KV)* )? | "seed=" INT
    NAME   ::= drop | dup | delay | degrade | crash | slow | failover
    KV     ::= KEY "=" VALUE
    v}

    Clauses and their keys (all keys optional unless noted):
    - [drop:p=0.01] — drop each message with probability [p].
    - [dup:p=0.01] — deliver each message twice with probability [p].
    - [delay:p=0.01,ns=1e5] — with probability [p], stall the sender's
      link for an extra [ns] before the message goes on the wire (the
      link is stalled, not the message reordered, so MPI non-overtaking
      is preserved).
    - [degrade:factor=4] or [degrade:node=N,factor=4] — divide link
      bandwidth by [factor], on every link or only on links touching
      node [N].
    - [crash:node=N,at=T] (node required) — node [N] fails at simulated
      time [T] ns: messages to or from it are black-holed and its
      serving process stops.
    - [slow:node=N,factor=F] (node required) — node [N]'s computation
      takes [F] times as long.
    - [failover:timeout=NS,retries=K,fallback=local|none] — failover
      policy: re-send a batch after [timeout] ns of silence, up to
      [retries] times, then declare the destination dead and either
      resolve the batch with the master's local reference lookup
      ([local], the default) or abandon it and report the queries as
      lost ([none]).
    - [seed=N] — override the PRNG seed for the fault decision stream
      (defaults to the scenario seed).

    Example: ["drop:p=0.02+crash:node=4,at=2e6+failover:retries=3"]. *)

type t = {
  drop_p : float;
  dup_p : float;
  delay_p : float;
  delay_ns : float;
  degrade_node : int option;  (** [None] = every link. *)
  degrade_factor : float;  (** [1.0] = no degradation. *)
  crashes : (int * float) list;  (** [(node, at_ns)], sorted by node. *)
  slow : (int * float) list;  (** [(node, factor)], sorted by node. *)
  seed : int option;
  timeout_ns : float option;
      (** Failover re-send timeout; [None] = derived from the network
          profile and batch size by the driver. *)
  retries : int;  (** Re-sends before a destination is declared dead. *)
  fallback : bool;  (** Resolve dead partitions at the master. *)
}

val none : t
(** No injected faults, default failover policy. *)

val is_none : t -> bool
(** [true] when the spec injects nothing (failover knobs are ignored:
    a fault-free run never times out). *)

val nodes : t -> int list
(** Every node id the spec names: the degraded node, then the crashed
    and the slow nodes. *)

val parse : string -> (t, string) result
(** Parse the grammar above; [Error] carries a human-readable message. *)

val to_string : t -> string
(** Canonical rendering; [parse (to_string t)] round-trips. *)
