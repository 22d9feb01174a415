(** Terminal and CSV renderings of {!Obs.Cachescope} readings.

    The text report shows, per labelled run and per node: demand
    hit/miss totals and the 3C miss split per cache level, per-phase 3C
    breakdowns, reuse-distance quantiles per address region,
    set-pressure heat rows ({!Report.Ascii_plot.heat_row}, one row per
    level, shared scale per node) and the final partition-residency
    readings.  The CSV flattens the same readings into long-format rows
    for plotting.  Both are pure functions of the scope, so output is
    byte-identical at any worker count. *)

val render : (string * Obs.Cachescope.t) list -> string
(** Concatenated per-run reports; [""] when the list is empty. *)

val csv : (string * Obs.Cachescope.t) list -> string
(** Header plus one row per reading, runs in order, nodes in
    registration order, phases/regions sorted. *)
