(** Grid sweeps over transient worker domains.

    The experiment drivers enumerate their (method x batch x scenario)
    grids as key lists and run one simulation per key here.  Each result
    is stored at its key's index, so the output never depends on which
    domain finished first and a sweep is byte-identical at any [jobs]
    value. *)

val sweep : jobs:int -> ('k -> 'a) -> 'k list -> ('k * 'a) list
(** [sweep ~jobs f keys] runs [f k] once per key and pairs each result
    with its key, in key order.

    [jobs <= 1] or a single key runs every cell in the calling domain.
    Otherwise [min jobs (List.length keys)] fresh domains claim cells
    from a shared cursor and the caller only joins them, so no cell runs
    on the caller's domain (its domain-local state stays untouched).
    [f] must therefore build its own simulation state and must not
    consume a shared PRNG.

    Every cell runs even when some raise; afterwards the exception of
    the first raising cell in key order is re-raised with its
    backtrace. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (one domain is the
    submitting caller), floor 1.  The default for every [--jobs] flag. *)

(** {2 Host-side accounting}

    Process-global wall-clock statistics over every {!sweep} with at
    least one key.  Wall times are real host seconds and thus
    nondeterministic — surface them only in non-reproducible output
    (e.g. a metrics manifest's [host] block, which is suppressed when
    [SOURCE_DATE_EPOCH] is set). *)

type host_stats = {
  batches : int;  (** Sweeps run. *)
  tasks : int;  (** Cells run. *)
  task_wall_s : float;  (** Summed per-cell wall time. *)
  batch_wall_s : float;  (** Summed end-to-end sweep wall time. *)
  max_task_wall_s : float;
  max_workers : int;  (** Most domains one sweep ran on. *)
}

val host_stats : unit -> host_stats
