(** Counting semaphores over simulated processes.

    Used to model contended hardware: a NIC that serialises outgoing
    transfers is a resource of capacity 1; a memory controller with [k]
    banks is a resource of capacity [k].  Waiters are served FIFO. *)

type t

val create : int -> t
(** [create n] is a resource with [n >= 1] units, all available. *)

val acquire : Engine.t -> t -> unit
(** Take one unit, blocking the calling process until one is available. *)

val release : Engine.t -> t -> unit
(** Return one unit; wakes the longest-waiting process.  Raises
    [Invalid_argument] when releasing above capacity. *)

val with_resource : Engine.t -> t -> (unit -> 'a) -> 'a
(** [with_resource e r f] brackets [f] between [acquire] and [release];
    the unit is released even if [f] raises. *)

val busy_ns : t -> now:float -> float
(** Accumulated simulated time with at least one unit held, including the
    in-progress interval up to [now]. *)

val utilization : t -> now:float -> float
(** Fraction of the time interval [0, now] during which at least one unit
    was held (busy time / now); [0.] when [now = 0.]. *)
