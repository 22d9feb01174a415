(** High-level grid sweeps over a domain pool.

    The experiment drivers enumerate their (method x batch x scenario)
    grids as {!Job.t} lists and submit them here; results come back in
    submission order, so rendering code downstream never sees a
    difference between a parallel and a sequential run. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (one domain is the
    submitting caller), floor 1.  The default for every [--jobs] flag. *)

val map : ?jobs:int -> f:('a -> 'b) -> 'a list -> 'b list
(** Parallel [List.map] preserving order, one cell per pool task.
    [jobs <= 1] (the default) or a single cell runs in the calling
    domain — no domains are spawned, which keeps single-job runs the
    bit-identical baseline.  Results are collected at their cells'
    submission indices, so the output list is independent of [jobs]. *)

val run : ?jobs:int -> ('k, 'a) Job.t list -> ('k * 'a) list
(** Run keyed jobs; each result is paired with its job's key, in
    submission order. *)
