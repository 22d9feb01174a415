(** Experiment scenario presets: the paper's configuration (Table 1 and
    Section 4.1) and scaled-down variants for CI and benchmarking.

    A scenario bundles everything an experiment run needs: index size,
    query volume, cluster size, machine profile, network profile and
    seed — plus, for the online serving mode, the client-population
    count, serving horizon and offered-load override.  Query volume is
    the only knob that changes between the paper scale and the scaled
    default — per-key costs are what the figures compare, and those are
    volume-invariant once the caches reach steady state.

    Construction: start from a preset ({!paper}, {!scaled}, {!ci}) and
    refine it with the [with_*] builders, mirroring [Experiment.Spec].
    The record is private: fields are read directly, never built. *)

type t = private {
  name : string;
  n_keys : int;  (** Indexed keys (Table 1: 327,680). *)
  n_queries : int;  (** Search keys (paper: 2^23). *)
  n_nodes : int;  (** Cluster size incl. masters (paper: 11). *)
  n_masters : int;
      (** Master nodes for Method C (paper: 1; §3.2 suggests replicating
          the top-level table over several masters under heavy load). *)
  batch_bytes : int;  (** Message/batch size (Figure 3 x-axis). *)
  params : Cachesim.Mem_params.t;
  net : Netsim.Profile.t;
  seed : int;
  clients : int;
      (** Simulated client populations feeding the serving mode's
          open-loop arrival process (ignored by batch sweeps). *)
  duration_ns : float;
      (** Serving horizon: arrivals are generated in
          [[0, duration_ns)] simulated nanoseconds. *)
  offered_qps : float option;
      (** When set, rescales the arrival process to this time-average
          offered load (queries per second); [None] uses the arrival
          spec's own rate. *)
}

val paper : t
(** Full paper configuration: 327,680 keys, 2^23 queries, 11 nodes,
    Pentium III + Myrinet, 128 KB batches. *)

val scaled : t
(** Paper configuration with 2^21 queries — the default for the bench
    harness; per-key results match [paper] closely at ~1/8 the cost. *)

val ci : t
(** Small smoke-test scenario for unit tests: 2^14 keys, 2^16 queries,
    6 nodes, a 20 ms serving horizon. *)

(** {2 Builders}

    Each returns a copy with one field replaced; chain with [|>].  *)

val with_name : string -> t -> t
val with_keys : int -> t -> t
val with_queries : int -> t -> t
val with_nodes : int -> t -> t
val with_masters : int -> t -> t
val with_params : Cachesim.Mem_params.t -> t -> t
val with_net : Netsim.Profile.t -> t -> t
val with_seed : int -> t -> t

val with_clients : int -> t -> t
(** Clamped to at least 1. *)

val with_duration : float -> t -> t
(** Serving horizon in simulated nanoseconds; must be positive. *)

val with_offered_load : float -> t -> t
(** Offered-load override in queries per second; must be positive. *)

val with_batch : t -> int -> t
(** Replace the batch size (Figure 3 sweeps this).  Note the argument
    order: this predates the [with_*] family and every sweep driver
    uses it as [with_batch sc bytes]. *)

val fig3_batches : int list
(** The paper's Figure 3 x-axis: 8 KB to 4 MB in powers of two. *)

val queries_per_batch : t -> int

val pp : Format.formatter -> t -> unit
