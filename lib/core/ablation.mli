(** Ablation studies beyond the paper's figures — each probes one design
    choice or hidden assumption called out in DESIGN.md.

    Every driver takes a {!Experiment.Spec.t} positionally:
    [spec.scenario] (and [seed_override]) select the workload, and
    [spec.jobs] fans the study's simulation grid over that many worker
    domains via {!Exec.sweep} — results are collected in key order, so
    the table is identical at any worker count.  Genuinely per-study
    knobs ([?batches], [?exponents]) stay optional. *)

val batch_overhead :
  ?batches:int list -> Experiment.Spec.t -> Report.Table.t
(** Slave idle fraction and message count vs batch size for Method C-3
    (the paper reports 50% idle at 8 KB and 20% at 4 MB). *)

val network : Experiment.Spec.t -> Report.Table.t
(** Method C-3 under Myrinet / Gigabit Ethernet / Fast Ethernet at several
    batch sizes: tests the paper's claim (§2.2) that slower, higher-latency
    networks need much larger batches. *)

val skew : ?exponents:float list -> Experiment.Spec.t -> Report.Table.t
(** Method C-3 under Zipf-skewed query keys: the paper assumes uniform
    keys; skew unbalances slave load.  Per-exponent query streams are
    split from the scenario PRNG sequentially before the sweep runs, so
    parallelism never changes the workload. *)

val masters : Experiment.Spec.t -> Report.Table.t
(** Analytical: per-key cost of C-3 with 1, 2 and 4 master nodes (the
    paper's §3.2 remark on master overload). *)

val line_size : Experiment.Spec.t -> Report.Table.t
(** Methods A and C-3 on Pentium III (32 B lines) vs a Pentium 4-like
    profile (128 B lines): the paper argues larger lines widen Method C's
    advantage. *)

val hierarchy : Experiment.Spec.t -> Report.Table.t
(** Dispatch-topology comparison over a fixed slave pool: flat single
    master vs replicated masters vs the two-tier router tree of
    [Runner.run ~routers] (the paper's T > 2L sketch).  Shows what the extra
    hop costs in response time and what it buys in dispatch capacity. *)

val hierarchy_check : Experiment.Spec.t -> (unit, string) result
(** Whether every topology {!hierarchy} runs fits the spec's node count
    ({!Method_c.layout} of each), so a driver can refuse the study
    before it starts. *)

val structures : Experiment.Spec.t -> Report.Table.t
(** Per-lookup steady-state cost of every index structure (sorted array,
    Eytzinger, CSB+, n-ary) at slave-partition scale (cache resident) and
    full-index scale (cache overflowed) — quantifies both the paper's
    §4.1 space-pressure claim and the Eytzinger extension. *)

val slave_structure : Experiment.Spec.t -> Report.Table.t
(** C-1 vs C-2 vs C-3 head-to-head with per-variant cache statistics —
    the space-pressure explanation of §4.1. *)

val updates :
  Experiment.Spec.t ->
  Report.Table.t
  * (Workload.Mutation.t * Run_result.t * Dynamic.stats) list
(** Update/query interference over the dynamic {!Index.Segments} index:
    update ratio x method x batch size, each cell a {!Dynamic} run.
    [--updates] pins the single mutation spec (ratio and merge policy);
    otherwise ratios 0 / 0.05 / 0.2 under the default policy.
    [--methods] narrows the method set (default A, B, C-3) and
    [--batches] widens the batch axis (default: the scenario's batch).
    Also returns the per-cell results in submission order for the
    [repro ablation updates] CSV/metrics exports. *)
