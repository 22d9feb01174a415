(** Unbounded FIFO message channels between simulated processes.

    [send] never blocks (infinite capacity); [recv] blocks the calling
    process until a message is available.  Receivers are woken in FIFO
    order, preserving determinism. *)

type 'a t

exception Closed
(** Raised by [recv] on a closed, drained channel and by [send] on a closed
    channel. *)

val create : unit -> 'a t

val send : 'a t -> 'a -> unit
(** Enqueue a message; wakes the longest-waiting receiver if any. *)

val recv : Engine.t -> 'a t -> 'a
(** Dequeue a message, blocking the calling process if the channel is
    empty.  Must be called from inside a process. *)

val recv_timeout : Engine.t -> 'a t -> timeout_ns:float -> 'a option
(** Like {!recv}, but gives up and returns [None] if no message arrives
    within [timeout_ns] simulated nanoseconds.  The timer event is
    scheduled unconditionally, so a call that succeeds still leaves a
    (no-op) event in the engine queue at [now + timeout_ns]; callers
    that care about the final clock value should track their own
    completion time.  Must be called from inside a process. *)

val close : Engine.t -> 'a t -> unit
(** Close the channel: subsequent [send]s raise {!Closed}; blocked and
    future [recv]s raise {!Closed} once the buffer is drained. *)
