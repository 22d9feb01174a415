(** A switched cluster interconnect with per-node full-duplex NICs.

    Topology is a full crossbar (as a Myrinet switch presents): the only
    contended resources are each node's transmit and receive NICs.  A
    message from [src] to [dst]:

    + waits for (and then occupies) [src]'s TX NIC for
      [size / bandwidth] — this serialises a node's outgoing messages and
      is what bounds the master node's aggregate dispatch rate;
    + travels for [latency];
    + waits for (and then occupies) [dst]'s RX NIC for
      [size / bandwidth];
    + lands in [dst]'s mailbox, where {!recv} picks it up.

    Sending is asynchronous ([MPI_Isend]): the sending process does not
    block; the per-message {e host} software overhead is the caller's to
    charge to its simulated CPU (see {!Profile.t.host_overhead_ns}), since
    whether it overlaps is a property of the method being modelled. *)

type 'a envelope = {
  src : int;
  dst : int;
  tag : int;
  size : int;  (** Payload size in bytes, as charged to the wire. *)
  payload : 'a;
  sent_at : float;  (** Simulated send time (for latency accounting). *)
}

type 'a t

val create : ?faults:Fault.Plan.t -> Simcore.Engine.t -> Profile.t -> nodes:int -> 'a t
(** [?faults] attaches a fault plan: every subsequent [isend] consults it
    for drop / duplicate / delay-spike / degradation decisions, and
    messages to or from a crashed node are black-holed.  Without it the
    interconnect is exactly the fault-free model (bit-identical event
    stream). *)

val isend :
  'a t -> src:int -> dst:int -> ?tag:int -> ?phase:string -> size:int -> 'a -> unit
(** Asynchronous send; must be called from inside a simulated process or
    event.  [size] is the message payload size in bytes.  When an
    {!Obs.Profile} is ambiently recording, the message's wire latency
    and bandwidth (transfer) time are charged to it under
    [(phase, "net_latency")] / [(phase, "net_bandwidth")]; [phase]
    defaults to ["net"].  Per-message host overhead is the sender's CPU
    and is the caller's to charge ({!Machine.compute}). *)

val recv : 'a t -> dst:int -> 'a envelope
(** Blocking receive of the next message addressed to [dst], in delivery
    order. *)

val recv_timeout : 'a t -> dst:int -> timeout_ns:float -> 'a envelope option
(** Blocking receive that gives up after [timeout_ns] simulated
    nanoseconds of silence and returns [None].  Note the engine keeps
    the (no-op) timer event, so [Engine.now] after the run can exceed
    the last useful event; failover drivers track their own completion
    time. *)

(** {2 Accounting} *)

val messages_sent : 'a t -> int
val bytes_sent : 'a t -> int
val messages_delivered : 'a t -> int

val tx_utilization : 'a t -> node:int -> float
(** Fraction of elapsed simulated time node's TX NIC was busy. *)

val record_metrics : 'a t -> Obs.Metrics.t -> unit
(** Dump interconnect counters into a metrics registry:
    [net_messages_sent], [net_bytes_sent], [net_messages_delivered],
    [net_queue_ns] (counters) and per-node [net_tx_busy_ns] /
    [net_rx_busy_ns] NIC-occupancy gauges labelled [node=<i>].  When a
    fault plan is attached, also [net_faults_dropped],
    [net_faults_duplicated], [net_faults_delayed] and
    [net_faults_blackholed]; a fault-free network emits no fault
    counters, keeping its metrics dump byte-identical to before. *)
