(** A small MPI-flavoured layer over {!Network}: ranked communicators,
    tag- and source-selective receives, and the collectives the paper's
    experimental programs would have used (MPICH 1.2.5 over GM).

    Point-to-point semantics follow MPI: messages between a given
    (source, destination) pair are non-overtaking; [recv] can select on
    source and tag, buffering non-matching messages until asked for
    (the unexpected-message queue).  [isend] never blocks the caller —
    completion of the transfer is the network simulator's business, as
    with [MPI_Isend] + eager protocol.

    Collectives are implemented from point-to-point messages, so they pay
    realistic latency/bandwidth/NIC costs: [barrier] is a gather-to-root
    plus broadcast; [bcast]/[scatter]/[gather] are rooted linear fan-outs
    (faithful to MPICH-era implementations on small clusters). *)

type 'a t
(** A communicator carrying messages of type ['a]. *)

val create : ?faults:Fault.Plan.t -> Simcore.Engine.t -> Profile.t -> ranks:int -> 'a t
(** [?faults] is forwarded to the underlying {!Network.create};
    non-overtaking still holds for the messages that are delivered
    (injected delay spikes stall the sender's link rather than reorder
    messages). *)

val isend : 'a t -> src:int -> dst:int -> ?tag:int -> size:int -> 'a -> unit
(** Non-blocking tagged send of [size] payload bytes. *)

val recv :
  'a t -> rank:int -> ?source:int -> ?tag:int -> unit -> int * int * 'a
(** [recv t ~rank ?source ?tag ()] blocks rank [rank] until a message
    matching the optional [source] and [tag] selectors arrives (earlier
    non-matching messages are stashed, preserving their order for later
    receives).  Returns [(source, tag, payload)]. *)

val recv_timeout :
  'a t ->
  rank:int ->
  ?source:int ->
  ?tag:int ->
  timeout_ns:float ->
  unit ->
  (int * int * 'a) option
(** Like {!recv}, but returns [None] if no matching message arrives
    within [timeout_ns] simulated nanoseconds.  The deadline is
    absolute: non-matching arrivals are stashed (as in {!recv}) without
    restarting the clock.  See {!Network.recv_timeout} for the
    engine-clock caveat. *)

val probe : 'a t -> rank:int -> ?source:int -> ?tag:int -> unit -> bool
(** Non-blocking check whether a matching message is available. *)

(** {2 Collectives} — every participating rank must call the operation. *)

val barrier : 'a t -> rank:int -> fill:'a -> unit
(** Synchronise all ranks.  [fill] is the (zero-byte) payload value used
    for the internal control messages. *)

val bcast : 'a t -> rank:int -> root:int -> size:int -> 'a -> 'a
(** Root's value is distributed to every rank; each rank returns it. *)

val scatter : 'a t -> rank:int -> root:int -> size:int -> 'a array -> 'a
(** Root provides one element (of [size] bytes) per rank; each rank
    returns its element.  Non-root callers pass [ [||] ]. *)

val gather : 'a t -> rank:int -> root:int -> size:int -> 'a -> 'a array
(** Every rank contributes one element; the root returns them indexed by
    rank, others return [ [||] ]. *)

val reduce :
  'a t -> rank:int -> root:int -> size:int -> op:('a -> 'a -> 'a) -> 'a -> 'a option
(** Rooted reduction: the root returns [Some] of the fold of all
    contributions (in rank order), others return [None]. *)

val record_metrics : 'a t -> Obs.Metrics.t -> unit
(** Dump communicator counters into a metrics registry — [mpi_sends],
    [mpi_recvs], [mpi_stash_hits], [mpi_stashed] and per-operation
    [mpi_collectives] ([op=barrier|bcast|...]) — then the underlying
    network's counters via {!Network.record_metrics}. *)
