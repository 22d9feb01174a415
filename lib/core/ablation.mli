(** Ablation studies beyond the paper's figures — each probes one design
    choice or hidden assumption called out in DESIGN.md.

    Every driver takes a {!Experiment.Spec.t} positionally:
    [spec.scenario] selects the workload.  Every study but [structures]
    returns an {!Experiment.grid} for {!Experiment.run_grid}, its labels
    naming what the study varies.
    Genuinely per-study knobs ([?batches], [?exponents]) stay optional. *)

val batch_overhead :
  ?batches:int list -> Experiment.Spec.t -> Report.Table.t Experiment.grid
(** Slave idle fraction and message count vs batch size for Method C-3
    (the paper reports 50% idle at 8 KB and 20% at 4 MB). *)

val network : Experiment.Spec.t -> Report.Table.t Experiment.grid
(** Method C-3 under Myrinet / Gigabit Ethernet / Fast Ethernet at several
    batch sizes: tests the paper's claim (§2.2) that slower, higher-latency
    networks need much larger batches. *)

val skew :
  ?exponents:float list -> Experiment.Spec.t -> Report.Table.t Experiment.grid
(** Method C-3 under Zipf-skewed query keys: the paper assumes uniform
    keys; skew unbalances slave load.  Per-exponent query streams are
    split from the scenario PRNG sequentially before any cell runs, so
    parallelism never changes the workload. *)

val masters : Experiment.Spec.t -> Report.Table.t Experiment.grid
(** Per-key cost of C-3 with 1, 2 and 4 master nodes over a fixed pool
    of the scenario's [n_nodes - 1] slaves, simulated and from the model
    (the paper's §3.2 remark on master overload). *)

val line_size : Experiment.Spec.t -> Report.Table.t Experiment.grid
(** Methods A and C-3 on Pentium III (32 B lines) vs a Pentium 4-like
    profile (128 B lines): the paper argues larger lines widen Method C's
    advantage. *)

val hierarchy : Experiment.Spec.t -> Report.Table.t Experiment.grid
(** Dispatch-topology comparison over a fixed slave pool: flat single
    master vs three replicated masters vs two-tier router trees of 2
    and 3 routers (the paper's T > 2L sketch), all over the scenario's
    [n_nodes - 1] slaves.  Shows what the extra hop costs in response
    time and what it buys in dispatch capacity. *)

val structures : Experiment.Spec.t -> Report.Table.t
(** Per-lookup steady-state cost of every index structure (sorted array,
    Eytzinger, CSB+, n-ary) at slave-partition scale (cache resident) and
    full-index scale (cache overflowed) — quantifies both the paper's
    §4.1 space-pressure claim and the Eytzinger extension. *)

val slave_structure : Experiment.Spec.t -> Report.Table.t Experiment.grid
(** C-1 vs C-2 vs C-3 head-to-head with per-variant cache statistics —
    the space-pressure explanation of §4.1. *)

val updates :
  Experiment.Spec.t ->
  (Report.Table.t * (Workload.Mutation.t * Run_result.t * Dynamic.stats) list)
  Experiment.grid
(** Update/query interference over the dynamic {!Index.Segments} index:
    update ratio x method x batch size, each an [Updates] cell with an
    {!Experiment.Update_ratio} axis; each ratio's op stream is generated
    once and shared by its cells.  [--updates] pins the single mutation
    spec (ratio and merge policy); otherwise ratios 0 / 0.05 / 0.2 under
    the default policy.  The method and batch axes are [spec.methods]
    and [spec.batches] (`repro` defaults them to A, B, C-3 and the
    scenario's batch).  Also collects the per-cell results in cell order
    for the [repro ablation updates] CSV export. *)
