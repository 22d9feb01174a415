(** Fixed-size pool of worker domains with a hand-rolled work queue.

    A pool owns [jobs] worker domains (OCaml 5 [Domain.t]) that block on
    a condition variable until a batch of indexed tasks is installed.
    Workers claim task indices from a shared cursor under the pool mutex,
    run the task bodies outside the lock, and store each result into a
    slot chosen by the task's submission index — so {!map} returns
    results in submission order and a sweep's output is byte-identical to
    a sequential run regardless of how tasks were scheduled.

    Exception safety: a task that raises does not poison the pool.  The
    exception is captured in the task's slot, every other task still
    runs, and once the batch has drained the first exception in
    submission order is re-raised in the caller (with its backtrace).
    The pool remains usable for further batches afterwards.

    A pool must be driven from one caller at a time ({!map} is not
    reentrant); that caller may be any domain. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs] worker domains ([jobs >= 1] enforced).
    Spawning is cheap but not free (~tens of microseconds per domain);
    reuse a pool across batches when sweeping repeatedly. *)

val jobs : t -> int
(** Number of worker domains. *)

val map : t -> f:('a -> 'b) -> 'a array -> 'b array
(** [map t ~f xs] runs [f xs.(i)] for every [i] on the worker domains
    and returns the results indexed exactly like [xs]. *)

val shutdown : t -> unit
(** Signal the workers to exit and join their domains.  Idempotent; the
    pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts the
    pool down, even if [f] raises. *)

val run : jobs:int -> (unit -> 'a) list -> 'a list
(** Transient-pool convenience: run the thunks with [jobs] workers and
    return results in submission order.  [jobs <= 1] or a single thunk
    runs in the calling domain without spawning. *)

(** {2 Host-side accounting}

    Process-global wall-clock statistics over every batch run through any
    pool (including the inline [run ~jobs:1] path).  Wall times are real
    host seconds and thus nondeterministic — surface them only in
    non-reproducible output channels (e.g. a metrics manifest's [host]
    block, which is suppressed when [SOURCE_DATE_EPOCH] is set). *)

type host_stats = {
  batches : int;
  tasks : int;
  task_wall_s : float;  (** Summed per-task wall time. *)
  batch_wall_s : float;  (** Summed end-to-end batch wall time. *)
  max_task_wall_s : float;
  max_workers : int;  (** Widest pool observed. *)
}

val host_stats : unit -> host_stats
val reset_host_stats : unit -> unit
