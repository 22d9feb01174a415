(** Deterministic discrete-event simulation engine.

    Simulated processes are ordinary OCaml functions executed as
    effect-handler fibers (OCaml 5 [Effect]); when a process blocks — on a
    {!delay}, a channel receive, a resource acquire — it performs the
    {!Suspend} effect, its continuation is captured, and the engine runs the
    next event.  Time is a [float] number of simulated nanoseconds.

    Determinism: simultaneous events are executed in the order they were
    scheduled (a global sequence number breaks ties), so a simulation with a
    fixed seed is bit-reproducible. *)

type t
(** A simulation engine: event queue + clock. *)

exception Process_failure of string * exn
(** Raised by {!run} when a spawned process raised: carries the process name
    and the original exception. *)

val create : unit -> t
(** A fresh engine with the clock at time [0.0]. *)

val now : t -> float
(** Current simulated time in nanoseconds. *)

val events_executed : t -> int
(** Total number of events executed so far (diagnostic). *)

val processes_spawned : t -> int

val processes_live : t -> int
(** Number of spawned processes that have neither returned nor raised. *)

val record_metrics : t -> Obs.Metrics.t -> unit
(** Dump the engine's counters into a metrics registry:
    [engine_events_executed], [engine_processes_spawned] (counters) and
    [engine_max_heap_depth], [engine_now_ns] (gauges). *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] runs [f] as an event at absolute [time]. [time]
    must not be in the past. *)

val schedule_after : t -> float -> (unit -> unit) -> unit
(** [schedule_after t dt f] = [schedule_at t (now t +. dt) f]. *)

val schedule_now : t -> (unit -> unit) -> unit
(** Run [f] at the current time, after already-queued simultaneous events. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t ~name body] starts a process at the current simulation time.
    The body runs under the engine's effect handler, so it may call
    {!delay}, {!suspend} and the blocking operations of {!Channel} and
    {!Resource}. *)

val suspend : (t -> (unit -> unit) -> unit) -> unit
(** [suspend park] blocks the calling process.  [park engine resume] is
    called immediately with a [resume] function; invoking [resume ()]
    (typically from another process or a scheduled event) reschedules the
    suspended process at the then-current time.  Must be called from inside
    a process. *)

val delay : t -> float -> unit
(** [delay t dt] suspends the calling process for [dt >= 0] simulated
    nanoseconds. *)

val run : t -> unit
(** Execute events until the queue is empty.  Re-raises the first process
    failure as {!Process_failure}. *)

val run_until : t -> float -> unit
(** [run_until t horizon] executes events with timestamp [<= horizon]; the
    clock is left at [horizon] or at the last event time, whichever is
    larger of the executed ones. *)
